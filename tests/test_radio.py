"""Channel physics: tier tables, frequency scaling, interference ranges."""
import math

import pytest

from fairband import Channel, RadioModel, RateTier, channel_profile, link_rate
from fairband.radio import DEFAULT_BASE_TIERS, range_scale


def test_base_tier_table():
    assert [(t.rate_mbps, t.range_m) for t in DEFAULT_BASE_TIERS] == [
        (11.0, 50.0),
        (5.5, 80.0),
        (2.0, 120.0),
        (1.0, 150.0),
    ]


def test_base_interference_range_is_whole_meters():
    model = RadioModel()
    # 150 * 23.42^(1/3.5) = 369.32, rounded to the published whole-meter value
    assert model.base_interference_range() == 369.0


def test_range_scale_reference_channel_is_identity():
    assert range_scale(Channel("ref", 2400.0, 22.0)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "freq,expected",
    [
        (16000.0, 0.338217),  # (2400/16000)^(2/3.5)
        (524.0, 2.385864),
        (4000.0, 0.746843),
    ],
)
def test_range_scale_frozen_values(freq, expected):
    assert range_scale(Channel("x", freq, 6.0)) == pytest.approx(expected, abs=1e-6)


def test_4ghz_profile():
    prof = channel_profile(Channel("x", 4000.0, 44.0))
    ranges = [t.range_m for t in prof.tiers]
    rates = [t.rate_mbps for t in prof.tiers]
    assert ranges == pytest.approx([37.3421, 59.7474, 89.6212, 112.0264], abs=1e-3)
    assert rates == [22.0, 11.0, 4.0, 2.0]
    assert prof.interference_range_m == pytest.approx(275.585, abs=1e-2)


def test_16ghz_profile_frozen():
    prof = channel_profile(Channel("x", 16000.0, 50.0))
    assert [t.rate_mbps for t in prof.tiers] == pytest.approx(
        [25.0, 12.5, 4.545455, 2.272727], abs=1e-5
    )
    assert [t.range_m for t in prof.tiers] == pytest.approx(
        [16.9108, 27.0573, 40.5860, 50.7325], abs=1e-3
    )
    assert prof.interference_range_m == pytest.approx(124.802, abs=1e-2)


def test_sub_ghz_profile_frozen():
    prof = channel_profile(Channel("x", 524.0, 12.0))
    assert prof.tiers[0].range_m == pytest.approx(119.293, abs=1e-2)
    assert prof.tiers[0].rate_mbps == pytest.approx(6.0, abs=1e-12)  # 11 * 12/22
    assert prof.max_range_m == pytest.approx(357.880, abs=1e-2)


def test_rate_at_boundaries_inclusive():
    prof = channel_profile(Channel("b", 2400.0, 22.0))
    assert prof.rate_at(50.0) == 11.0
    assert prof.rate_at(50.0001) == 5.5
    assert prof.rate_at(150.0) == 1.0
    assert prof.rate_at(150.0001) == 0.0
    assert prof.rate_at(0.0) == 11.0


def test_link_rate_uses_distance():
    prof = channel_profile(Channel("b", 2400.0, 22.0))
    assert link_rate((0.0, 0.0), (30.0, 40.0), prof) == 11.0  # d = 50
    assert link_rate((0.0, 0.0), (90.0, 120.0), prof) == 1.0  # d = 150


def test_bandwidth_scales_rates_only():
    narrow = channel_profile(Channel("x", 2400.0, 11.0))
    assert [t.rate_mbps for t in narrow.tiers] == [5.5, 2.75, 1.0, 0.5]
    assert [t.range_m for t in narrow.tiers] == [50.0, 80.0, 120.0, 150.0]


def test_radio_model_validation():
    with pytest.raises(ValueError):
        RadioModel(path_loss_alpha=2.0)
    with pytest.raises(ValueError):
        RadioModel(base_frequency_mhz=-1.0)
    with pytest.raises(ValueError):
        RadioModel(carrier_sense_factor=-1.0)
    with pytest.raises(ValueError):
        RadioModel(base_tiers=(RateTier(-1.0, 50.0),))
    with pytest.raises(ValueError):
        RadioModel(base_tiers=(RateTier(11, 50), RateTier(12, 80)))  # rates must fall
    with pytest.raises(ValueError):
        RadioModel(base_tiers=(RateTier(11, 80), RateTier(5.5, 50)))  # ranges must grow


def test_frequency_scaling_monotone():
    lo = channel_profile(Channel("lo", 600.0, 6.0))
    hi = channel_profile(Channel("hi", 16000.0, 50.0))
    assert lo.max_range_m > 150.0 > hi.max_range_m
    assert lo.interference_range_m > hi.interference_range_m
