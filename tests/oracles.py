"""Independent dict-based oracles that the array code is checked against."""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from spreadcolor.graphs import Graph


def is_proper(
    g: Graph,
    sigma: Mapping[int, int] | np.ndarray,
    lists: Sequence[Sequence[int]] | None = None,
) -> bool:
    """True when no edge has both ends colored alike in the partial coloring
    sigma (vertex -> color), and, given lists, every color is in its list.
    An array sigma is a full coloring indexed by vertex."""
    if isinstance(sigma, np.ndarray):
        sigma = dict(enumerate(sigma.tolist()))
    for v, c in sigma.items():
        if lists is not None and c not in lists[v]:
            return False
        for w in g.neighbors(v):
            if w in sigma and sigma[w] == c:
                return False
    return True
