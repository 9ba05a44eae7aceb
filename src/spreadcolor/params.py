"""Tunable parameters for the coloring pipeline.

Defaults follow the construction's own choices where it names one
(theta = eps^2/16, theta' = e^-3 * theta / 2, greedy-phase k = 3) and
calibration formulas where the asymptotic analysis leaves a knob
(rejection window, cluster hierarchy margins).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

__all__ = ["Params"]


@dataclass(frozen=True)
class Params:
    # decomposition
    eps: float = 0.05                 # eps_in; cluster tolerance is 8*eps
    theta: float | None = None        # sparsity threshold; default eps^2/16

    # sparse phase
    theta_prime: float | None = None  # default e^-3 * theta / 2
    t_window: float | None = None     # |N_v ∩ T| window halfwidth / D; None = calibrated
    accept_target: float = 0.5        # calibration target for rejection acceptance
    max_tries: int = 10_000

    # matching
    k_out: int = 3
    k_out_max: int = 16
    lambda_max: float = 0.25
    match_max_tries: int = 200

    # cluster phase
    zeta0: float | None = None        # default sqrt(8*eps)/D
    eta: float | None = None          # default geometric mean of hierarchy ends
    h_margin: float = 1.25            # numeric margin standing in for "<<"

    # pipeline / audits
    d_min: int = 4
    enum_cap: int = 10**8
    color_cap: int = 2_000_000
    c_hat_ceiling: float = 64.0

    def __post_init__(self):
        if not (0 < self.eps <= 0.05):
            raise ValueError(f"eps must be in (0, 1/20], got {self.eps}")
        for name in ("theta", "theta_prime", "t_window", "c_hat_ceiling"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (math.isfinite(self.h_margin) and self.h_margin > 1.0):
            raise ValueError(f"h_margin must be finite and > 1, got {self.h_margin}")
        if self.zeta0 is not None and not (math.isfinite(self.zeta0) and self.zeta0 >= 0):
            raise ValueError(f"zeta0 must be finite and >= 0, got {self.zeta0}")
        if self.eta is not None and not (0 < self.eta <= 1):
            raise ValueError(f"eta must be finite and in (0, 1], got {self.eta}")
        if not (0 < self.accept_target < 1):
            raise ValueError("accept_target must be in (0, 1)")
        if not (1 <= self.k_out <= self.k_out_max):
            raise ValueError(
                f"need 1 <= k_out <= k_out_max, got k_out={self.k_out}, "
                f"k_out_max={self.k_out_max}"
            )
        for name in ("max_tries", "match_max_tries", "enum_cap", "color_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0 < self.lambda_max < 1):
            raise ValueError(f"lambda_max must be in (0, 1), got {self.lambda_max}")

    # -- derived values ------------------------------------------------------

    def theta_value(self) -> float:
        return self.theta if self.theta is not None else self.eps**2 / 16.0

    def theta_prime_value(self) -> float:
        if self.theta_prime is not None:
            return self.theta_prime
        return 0.5 * math.exp(-3.0) * self.theta_value()

    def cluster_eps(self) -> float:
        return 8.0 * self.eps

    def zeta0_value(self, d: int) -> float:
        if self.zeta0 is not None:
            return self.zeta0
        return math.sqrt(self.cluster_eps()) / d

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

    def replace(self, **kw) -> "Params":
        d = self.to_dict()
        d.update(kw)
        return Params.from_dict(d)
