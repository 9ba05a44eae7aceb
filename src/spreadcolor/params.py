"""Tunable parameters for the coloring pipeline, each defined once.

`Params` holds what a caller may set, with its default: eps_in, theta
(default eps^2/16), the window, the retry budgets and the exact
searches' node caps.  Its methods derive theta' = e^-3 * theta / 2 and
the cluster tolerance 8 * eps_in.  zeta0 and eta are not set: the
construction fixes both from the cluster tolerance and D, so they are
facts of a cluster's shape (clusters.cluster_shape and
clusters._eta_rounds).  A function that takes a budget as an argument
defaults to its field.  A value the construction fixes outright is a
constant of the module that reads it: `K`, `K_MAX` and `LAMBDA_MAX` in
matching, `H_MARGIN` and `D_MIN` in clusters, `ACCEPT_TARGET` in
sparse_phase and `EXACT_CAP` in audit.
"""
from __future__ import annotations

import math
import numbers
import typing
from dataclasses import asdict, dataclass, fields

__all__ = ["Params"]


@dataclass(frozen=True)
class Params:
    # decomposition
    eps: float = 0.05                 # eps_in; cluster tolerance is 8*eps
    theta: float | None = None        # sparsity threshold; default eps^2/16

    # sparse phase
    t_window: float | None = None     # |N_v ∩ T| window halfwidth / D; None = calibrated
    max_tries: int = 10_000

    # matching
    match_max_tries: int = 200

    # audits
    enum_cap: int = 10**8
    color_cap: int = 2_000_000
    c_hat_ceiling: float = 64.0

    def __post_init__(self):
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name in _INT_FIELDS:
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
            elif not (value is None and name in _OPTIONAL_FIELDS) and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)
            ):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (0 < self.eps <= 0.05):
            raise ValueError(f"eps must be in (0, 1/20], got {self.eps}")
        for name in ("theta", "t_window", "c_hat_ceiling"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("max_tries", "match_max_tries", "enum_cap", "color_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    # -- derived values ------------------------------------------------------

    def theta_value(self) -> float:
        return self.theta if self.theta is not None else self.eps * self.eps / 16.0

    def theta_prime_value(self) -> float:
        return 0.5 * math.exp(-3.0) * self.theta_value()

    def cluster_eps(self) -> float:
        return 8.0 * self.eps

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Params":
        known = {f.name for f in fields(Params)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown parameter(s): {sorted(unknown)}")
        return Params(**data)


_HINTS = typing.get_type_hints(Params)
_INT_FIELDS = frozenset(name for name, hint in _HINTS.items() if hint is int)
_OPTIONAL_FIELDS = frozenset(
    name for name, hint in _HINTS.items() if type(None) in typing.get_args(hint)
)
