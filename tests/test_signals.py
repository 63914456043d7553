import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinal_unloc import bench
from ordinal_unloc.bench import ExperimentConfig
from ordinal_unloc.core import InputError
from ordinal_unloc.signals import RssModel, rss_power


def _rss_draw(seed, m=6, n=4, **kw):
    """One grid point of the trial's rss kind: its ``bench._GroupDraw``,
    whose direct estimates are the fixed-exponent and genie inversions."""
    config = ExperimentConfig(kind="rss", anchor_counts=(m,), n_targets=n, **kw)
    model = RssModel(
        transmit_power=config.transmit_power,
        hardware_gain=config.hardware_gain,
        exponent_low=config.exponent_low,
        exponent_high=config.exponent_high,
    )
    return bench._rss_draw(config, m, None, [np.random.default_rng(seed)], model)


def _toa_draw(seed, variance, m=6, n=4, **kw):
    """One grid point of the trial's toa kind at normalized variance
    ``variance`` (0 included, which a config's grid refuses): its draw,
    with the direct estimates c * tau, and its arrival times tau."""
    config = ExperimentConfig(kind="toa", anchor_counts=(m,), n_targets=n, noise_grid=(1.0,), **kw)
    draw = bench._toa_draw(config, m, [variance], [np.random.default_rng(seed)])
    ((signals,),) = draw.comparisons
    return draw, signals.values


def test_rss_power_worked_example():
    # P_T = 2, alpha = 3, d = 2, G = 3: P_R = 6 / 8
    model = RssModel(transmit_power=2.0, hardware_gain=3.0)
    assert rss_power(model, 2.0, 3.0) == pytest.approx(0.75)


def test_rss_power_unit_distance_is_gain():
    model = RssModel(transmit_power=5.0, hardware_gain=0.5)
    for g in (2.0, 4.0, 6.0):
        assert rss_power(model, 1.0, g) == pytest.approx(2.5)


def test_rss_power_rejects_nonpositive_distance():
    with pytest.raises(InputError):
        rss_power(RssModel(), 0.0, 4.0)
    with pytest.raises(InputError):
        rss_power(RssModel(), [1.0, -0.1], 4.0)


def test_rss_model_validation():
    with pytest.raises(InputError):
        RssModel(transmit_power=0.0)
    with pytest.raises(InputError):
        RssModel(hardware_gain=-1.0)
    with pytest.raises(InputError):
        RssModel(exponent_low=1.0)
    with pytest.raises(InputError):
        RssModel(exponent_low=5.0, exponent_high=3.0)


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
    # on links far longer than 1 the exponent is log(P_T alpha / P_R) / log(d)
    draw = _rss_draw(3, m=20, n=20, field_side=1000.0, transmit_power=2.0)
    ((signals,),) = draw.comparisons
    d = draw.d_full[0]
    long = d > 10.0
    g = np.log(2.0 / signals.values[long]) / np.log(d[long])
    assert long.sum() > 700
    assert g.min() >= 2.0 - 1e-9 and g.max() <= 6.0 + 1e-9
    assert g.mean() == pytest.approx(4.0, abs=0.15)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_rss_roundtrip_is_exact(seed, side, p_t):
    """Genie inversion with the generating exponents recovers the distances."""
    draw = _rss_draw(seed, field_side=side, transmit_power=p_t)
    np.testing.assert_allclose(draw.direct[1][0], draw.d_full[0, :6, 6:], rtol=1e-9, atol=0)


def test_fixed_exponent_rss_bias_direction():
    # true G = 6 with calibration G = 4 turns d into d^(6/4): long links
    # are overestimated badly
    draw = _rss_draw(4, field_side=100.0, exponent_low=6.0, exponent_high=6.0)
    d = draw.d_full[0, :6, 6:]
    np.testing.assert_allclose(draw.direct[0][0], d**1.5, rtol=1e-12)
    assert (draw.direct[0][0] > d)[d > 1.0].all() and (d > 1.0).any()


def test_rss_power_monotone_decreasing_in_distance():
    model = RssModel()
    d = np.linspace(1.0, 50.0, 200)
    p = rss_power(model, d, 3.7)
    assert np.all(np.diff(p) < 0)
