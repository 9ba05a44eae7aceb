from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from spreadcolor import matching
from spreadcolor.clusters import Pipeline
from spreadcolor.graphs import complete_graph
from spreadcolor.params import Params


@pytest.mark.parametrize(
    "bad",
    [
        {"k_out": 0},
        {"k_out": -1},
        {"k_out": 17},  # above the default k_out_max = 16
        {"k_out": 3, "k_out_max": 2},
        {"max_tries": 0},
        {"max_tries": -1},
        {"match_max_tries": 0},
        {"lambda_max": 0.0},
        {"lambda_max": 1.0},
        {"lambda_max": 5.0},
        {"lambda_max": -0.1},
    ],
)
def test_bad_matching_params_rejected(bad):
    with pytest.raises(ValueError):
        Params(**bad)
    with pytest.raises(ValueError):
        Params.from_dict(bad)


@pytest.mark.parametrize("name", ["theta", "theta_prime", "t_window", "c_hat_ceiling"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -0.01])
def test_bad_thresholds_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        Params(**{name: value})
    with pytest.raises(ValueError):
        Params.from_dict({name: value})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "name, value, message",
    [("h_margin", v, "h_margin must be finite and > 1") for v in (NAN, INF, -INF, 1.0, 0.5)]
    + [("zeta0", v, "zeta0 must be finite and >= 0") for v in (NAN, INF, -INF, -1.0, -1e-9)]
    + [("eta", v, r"eta must be finite and in \(0, 1\]") for v in (NAN, INF, -INF, 0.0, -0.5, 2.0, 1.0001)]
    + [(name, v, f"{name} must be >= 1") for name in ("enum_cap", "color_cap") for v in (0, -1)],
)
def test_bad_cluster_and_cap_values_rejected(name, value, message):
    with pytest.raises(ValueError, match=message):
        Params(**{name: value})
    with pytest.raises(ValueError, match=message):
        Params.from_dict({name: value})


INT_FIELDS = ["k_out", "k_out_max", "max_tries", "match_max_tries", "d_min", "enum_cap", "color_cap"]
FLOAT_FIELDS = ["eps", "theta", "theta_prime", "t_window", "accept_target", "lambda_max",
                "zeta0", "eta", "h_margin", "c_hat_ceiling"]


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


@pytest.mark.parametrize("name", ["eps", "accept_target", "lambda_max", "h_margin", "c_hat_ceiling"])
def test_none_rejected_where_no_default_is_derived(name):
    with pytest.raises(ValueError, match=f"{name} must be a real number, got None"):
        Params(**{name: None})


def test_field_kinds_cover_every_field():
    assert sorted(INT_FIELDS + FLOAT_FIELDS) == sorted(f.name for f in fields(Params))


def test_numpy_scalars_and_ints_accepted():
    p = Params(max_tries=np.int64(5), eps=np.float64(0.04), c_hat_ceiling=64, theta=1)
    assert p.max_tries == 5 and p.c_hat_ceiling == 64


def test_boundary_values_accepted():
    Params(k_out=1, k_out_max=1, max_tries=1, match_max_tries=1, lambda_max=0.999)
    Params(k_out=16)
    Params(theta=1e-300, theta_prime=1e-300)
    Params(theta=1.0, theta_prime=1.0)
    Params(t_window=1e-300, c_hat_ceiling=1e-300)
    Params(t_window=None)
    Params(h_margin=1.0000001, zeta0=0.0, eta=1.0, enum_cap=1, color_cap=1)
    Params(zeta0=1e300, eta=1e-300)


def test_removed_knob_is_an_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameter"):
        Params.from_dict({"dense_edge_ceiling": 10.0})


def test_k_out_max_reaches_the_dense_matcher(monkeypatch):
    seen = []
    real = matching.spread_matching_dense

    def spy(*args, **kwargs):
        seen.append(kwargs["k_max"])
        return real(*args, **kwargs)

    monkeypatch.setattr(matching, "spread_matching_dense", spy)
    Pipeline(complete_graph(17), Params(k_out_max=5)).sample(0)
    assert seen == [5]
    res = Pipeline(complete_graph(17), Params(k_out=2, k_out_max=4)).sample(0)
    assert seen == [5, 4] and sorted(res.coloring.tolist()) == list(range(1, 18))
