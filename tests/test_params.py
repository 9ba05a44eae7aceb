from __future__ import annotations

import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from spreadcolor import clusters, greedy, matching, thresholds
from spreadcolor.params import Params

# fields the construction fixes, now constants where they are read or
# (zeta0, eta) facts of a cluster's shape
REMOVED_FIELDS = ["theta_prime", "accept_target", "k_out", "k_out_max", "lambda_max",
                  "h_margin", "d_min", "zeta0", "eta"]


@pytest.mark.parametrize(
    "bad",
    [
        {"max_tries": 0},
        {"max_tries": -1},
        {"match_max_tries": 0},
    ],
)
def test_bad_matching_params_rejected(bad):
    with pytest.raises(ValueError):
        Params(**bad)
    with pytest.raises(ValueError):
        Params.from_dict(bad)


@pytest.mark.parametrize("name", ["theta", "t_window", "c_hat_ceiling"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -0.01])
def test_bad_thresholds_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        Params(**{name: value})
    with pytest.raises(ValueError):
        Params.from_dict({name: value})


@pytest.mark.parametrize(
    "name, value, message",
    [(name, v, f"{name} must be >= 1") for name in ("enum_cap", "color_cap") for v in (0, -1)],
)
def test_bad_cap_values_rejected(name, value, message):
    with pytest.raises(ValueError, match=message):
        Params(**{name: value})
    with pytest.raises(ValueError, match=message):
        Params.from_dict({name: value})


INT_FIELDS = ["max_tries", "match_max_tries", "enum_cap", "color_cap"]
FLOAT_FIELDS = ["eps", "theta", "t_window", "c_hat_ceiling"]


@pytest.mark.parametrize("name", INT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 2.0, "2", True, None])
def test_non_integer_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        Params(**{name: value})
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        Params.from_dict({name: value})


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", ["0.05", True, 1j, [0.05]])
def test_non_real_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        Params(**{name: value})
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        Params.from_dict({name: value})


@pytest.mark.parametrize("name", ["eps", "c_hat_ceiling"])
def test_none_rejected_where_no_default_is_derived(name):
    with pytest.raises(ValueError, match=f"{name} must be a real number, got None"):
        Params(**{name: None})


def test_field_kinds_cover_every_field():
    assert sorted(INT_FIELDS + FLOAT_FIELDS) == sorted(f.name for f in fields(Params))
    assert len(fields(Params)) == 8


def test_numpy_scalars_and_ints_accepted():
    p = Params(max_tries=np.int64(5), eps=np.float64(0.04), c_hat_ceiling=64, theta=1)
    assert p.max_tries == 5 and p.c_hat_ceiling == 64


def test_boundary_values_accepted():
    Params(max_tries=1, match_max_tries=1)
    Params(theta=1e-300)
    Params(theta=1.0)
    Params(t_window=1e-300, c_hat_ceiling=1e-300)
    Params(t_window=None)
    Params(enum_cap=1, color_cap=1)


@pytest.mark.parametrize("name", ["dense_edge_ceiling", *REMOVED_FIELDS])
def test_removed_knob_is_an_unknown_parameter(name):
    with pytest.raises(ValueError, match=rf"^unknown parameter\(s\): \['{name}'\]$"):
        Params.from_dict({name: 1})
    with pytest.raises(TypeError):
        Params(**{name: 1})


def test_theta_prime_is_derived_from_theta():
    assert Params().theta_prime_value() == 0.5 * math.exp(-3.0) * 0.05**2 / 16
    assert Params(theta=0.05).theta_prime_value() == 0.5 * math.exp(-3.0) * 0.05



# (function, budget argument, the Params field its default must equal)
BUDGET_DEFAULTS = [
    (clusters.color_cluster, "max_tries", "match_max_tries"),
    (matching.spread_matching_dense, "max_tries", "match_max_tries"),
    (matching.spread_X_perfect_matching, "max_tries", "match_max_tries"),
    (thresholds.list_colorings, "cap", "color_cap"),
    (thresholds.decide_list_colorable, "cap", "color_cap"),
    (thresholds.sparsification_scan, "cap", "color_cap"),
    (greedy.enumerate_colorings, "cap", "enum_cap"),
    (greedy.exact_containment_uniform, "cap", "enum_cap"),
]


@pytest.mark.parametrize("fn, arg, name", BUDGET_DEFAULTS, ids=lambda x: getattr(x, "__name__", x))
def test_each_budget_default_is_its_params_field(fn, arg, name):
    default = inspect.signature(fn).parameters[arg].default
    assert default == getattr(Params(), name)
    assert type(default) is int


def test_theta_default_is_the_correctly_rounded_eps_squared_over_16():
    # eps**2 / 16 and eps * eps / 16 differ in the last bit at eps = 0.0397
    assert Params(eps=0.0397).theta_value() == 0.0397 * 0.0397 / 16
    assert Params(eps=0.05).theta_value() == 0.05**2 / 16
