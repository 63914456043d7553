"""The simulated link signals of the Monte-Carlo trials: the received
powers of the rss kind and the arrival times of the toa kind, as
``bench._rss_draw`` and ``bench._toa_draw`` generate them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinal_unloc import bench
from ordinal_unloc.bench import ExperimentConfig
from ordinal_unloc.core import ConfigError, point_distances


def _rss_draw(seed, m=6, n=4, **kw):
    """One grid point of the trial's rss kind: its ``bench._GroupDraw``,
    whose direct estimates are the fixed-exponent and genie inversions."""
    config = ExperimentConfig(kind="rss", anchor_counts=(m,), n_targets=n, **kw)
    return bench._rss_draw(config, m, None, [np.random.default_rng(seed)])


def _powers(draw):
    ((signals,),) = draw.comparisons
    return signals.values


def _fixed_layout(monkeypatch, points):
    """Make every draw's layout ``points`` (anchors first)."""
    points = np.asarray(points, dtype=float)[None]
    monkeypatch.setattr(bench, "_layouts", lambda *_: (points, point_distances(points)))


def _toa_draw(seed, variance, m=6, n=4, **kw):
    """One grid point of the trial's toa kind at normalized variance
    ``variance`` (0 included, which a config's grid refuses): its draw,
    with the direct estimates c * tau, and its arrival times tau."""
    config = ExperimentConfig(kind="toa", anchor_counts=(m,), n_targets=n, noise_grid=(1.0,), **kw)
    draw = bench._toa_draw(config, m, [variance], [np.random.default_rng(seed)])
    ((signals,),) = draw.comparisons
    return draw, signals.values


def test_rss_power_worked_example(monkeypatch):
    # P_T alpha = 1, d = 2, G = 3: P_R = 1 / 8
    _fixed_layout(monkeypatch, [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)])
    draw = _rss_draw(0, m=2, n=1, exponent_low=3.0, exponent_high=3.0)
    assert _powers(draw)[0, 1] == pytest.approx(0.125)
    assert _powers(draw)[0, 2] == pytest.approx(0.125)


def test_rss_power_unit_distance_is_gain(monkeypatch):
    # the gain P_T alpha, which every method cancels, is 1
    _fixed_layout(monkeypatch, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    for g in (2.0, 4.0, 6.0):
        draw = _rss_draw(0, m=2, n=1, exponent_low=g, exponent_high=g)
        assert _powers(draw)[0, 1] == 1.0


def test_rss_power_floors_coincident_sensors(monkeypatch):
    # a target placed on an anchor receives the power of a link of length
    # MIN_LINK_DISTANCE, not an infinite one
    _fixed_layout(monkeypatch, [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)])
    draw = _rss_draw(0, m=2, n=1, exponent_low=2.0, exponent_high=2.0)
    assert _powers(draw)[0, 2] == pytest.approx(bench.MIN_LINK_DISTANCE**-2.0)


def test_rss_model_validation():
    # the rss kind's signal model parameters are checked where they are
    # configured: an exponent range that leaves [2, 6] or is reversed, or a
    # nonpositive calibration exponent, is refused
    for bad in (
        dict(calibration_exponent=0.0),
        dict(exponent_low=1.0),
        dict(exponent_low=5.0, exponent_high=3.0),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="rss", **bad)


def test_toa_noiseless_is_exact_travel_time():
    draw, toa = _toa_draw(0, 0.0, propagation_speed=2.0)
    np.testing.assert_array_equal(toa, draw.d_full[0] / 2.0)
    np.testing.assert_array_equal(draw.direct[0][0], draw.d_full[0, :6, 6:])


def test_toa_sample_statistics():
    draw, toa = _toa_draw(1, 0.04, m=150, n=50)
    iu, ju = np.triu_indices(200, k=1)
    noise = (toa - draw.d_full[0])[iu, ju]
    assert noise.mean() == pytest.approx(0.0, abs=0.01)
    assert noise.std() == pytest.approx(0.2, abs=0.01)
    np.testing.assert_array_equal(toa, toa.T)


def test_toa_can_be_negative_near_zero_distance():
    draw, _ = _toa_draw(2, 1.0, field_side=0.01)
    assert (draw.direct[0] < 0).any()


def test_exponent_draws_within_bounds():
    # on links far longer than 1 the exponent is log(1 / P_R) / log(d)
    draw = _rss_draw(3, m=20, n=20, field_side=1000.0)
    d = draw.d_full[0]
    long = d > 10.0
    g = np.log(1.0 / _powers(draw)[long]) / np.log(d[long])
    assert long.sum() > 700
    assert g.min() >= 2.0 - 1e-9 and g.max() <= 6.0 + 1e-9
    assert g.mean() == pytest.approx(4.0, abs=0.15)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=1e-3, max_value=1e3))
def test_rss_roundtrip_is_exact(seed, side):
    """Genie inversion with the generating exponents recovers the distances."""
    draw = _rss_draw(seed, field_side=side)
    np.testing.assert_allclose(draw.direct[1][0], draw.d_full[0, :6, 6:], rtol=1e-9, atol=0)


def test_fixed_exponent_rss_bias_direction():
    # true G = 6 with calibration G = 4 turns d into d^(6/4): long links
    # are overestimated badly
    draw = _rss_draw(4, field_side=100.0, exponent_low=6.0, exponent_high=6.0)
    d = draw.d_full[0, :6, 6:]
    np.testing.assert_allclose(draw.direct[0][0], d**1.5, rtol=1e-12)
    assert (draw.direct[0][0] > d)[d > 1.0].all() and (d > 1.0).any()


def test_rss_power_monotone_decreasing_in_distance():
    # one exponent on every link: a longer link always receives less power
    draw = _rss_draw(5, m=20, n=20, field_side=50.0, exponent_low=3.7, exponent_high=3.7)
    iu, ju = np.triu_indices(40, k=1)
    order = np.argsort(draw.d_full[0][iu, ju])
    assert np.all(np.diff(_powers(draw)[iu, ju][order]) < 0)
