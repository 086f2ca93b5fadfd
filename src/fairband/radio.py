"""Path-loss driven link rates and interference ranges for scaled channels.

Every channel is described relative to a reference 802.11b channel
(2400 MHz, 22 MHz wide) with four rate tiers measured under the ITU
path-loss model, where received power decays as 1 / (f^2 * d^alpha).
A channel at another center frequency reproduces the reference received
power at distances scaled by (f_ref / f)^(2 / alpha), and rates scale
linearly with bandwidth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import Channel


@dataclass(frozen=True)
class RateTier:
    """One modulation step: usable up to range_m meters at rate_mbps."""

    rate_mbps: float
    range_m: float


DEFAULT_BASE_TIERS = (
    RateTier(11.0, 50.0),
    RateTier(5.5, 80.0),
    RateTier(2.0, 120.0),
    RateTier(1.0, 150.0),
)


@dataclass(frozen=True)
class RadioModel:
    """Propagation assumptions shared by every channel in a deployment.

    carrier_sense_factor is the ratio of carrier-sense power threshold to
    receive threshold used by ns-2; it turns the outermost rate tier into
    an interference range.
    """

    path_loss_alpha: float = 3.5
    base_frequency_mhz: float = 2400.0
    base_bandwidth_mhz: float = 22.0
    base_tiers: tuple[RateTier, ...] = DEFAULT_BASE_TIERS
    carrier_sense_factor: float = 23.42

    def __post_init__(self):
        if self.path_loss_alpha <= 2.0:
            raise ValueError("path_loss_alpha must exceed 2")
        if self.base_frequency_mhz <= 0 or self.base_bandwidth_mhz <= 0:
            raise ValueError("base frequency and bandwidth must be positive")
        if self.carrier_sense_factor <= 0:
            raise ValueError("carrier_sense_factor must be positive")
        if not self.base_tiers:
            raise ValueError("at least one rate tier is required")
        rates = [t.rate_mbps for t in self.base_tiers]
        ranges = [t.range_m for t in self.base_tiers]
        if any(r <= 0 for r in rates) or any(d <= 0 for d in ranges):
            raise ValueError("tier rates and ranges must be positive")
        if any(a <= b for a, b in zip(rates, rates[1:])):
            raise ValueError("tier rates must be strictly decreasing")
        if any(a >= b for a, b in zip(ranges, ranges[1:])):
            raise ValueError("tier ranges must be strictly increasing")

    def base_interference_range(self) -> float:
        """Carrier-sense distance on the reference channel, in whole meters.

        150 * 23.42^(1/3.5) is 369.3; the ns-2 derived setting treats this
        as 369 m, and scaled channels inherit that rounding.
        """
        raw = self.base_tiers[-1].range_m * self.carrier_sense_factor ** (
            1.0 / self.path_loss_alpha
        )
        return float(round(raw))


@dataclass(frozen=True)
class ChannelProfile:
    """Concrete tier table and interference range for one channel."""

    channel_id: str
    tiers: tuple[RateTier, ...]
    interference_range_m: float

    @property
    def max_range_m(self) -> float:
        return self.tiers[-1].range_m

    def rate_at(self, distance_m: float) -> float:
        """Link rate in Mbps at the given distance, 0 when out of range.

        Tier boundaries are inclusive.
        """
        for tier in self.tiers:
            if distance_m <= tier.range_m:
                return tier.rate_mbps
        return 0.0


def range_scale(channel: "Channel", model: RadioModel | None = None) -> float:
    """Distance multiplier that carries reference-channel ranges to `channel`.

    Equal received power requires f^2 d^alpha constant, so distances scale
    by (f_ref / f)^(2 / alpha). Below the reference frequency ranges grow,
    above it they shrink.
    """
    model = model or RadioModel()
    return (model.base_frequency_mhz / channel.center_frequency_mhz) ** (
        2.0 / model.path_loss_alpha
    )


def channel_profile(channel: "Channel", model: RadioModel | None = None) -> ChannelProfile:
    """Derive a channel's tier table from the reference channel.

    Rates scale with bandwidth, ranges with the path-loss frequency factor.
    """
    model = model or RadioModel()
    scale = range_scale(channel, model)
    bw = channel.bandwidth_mhz / model.base_bandwidth_mhz
    tiers = tuple(
        RateTier(t.rate_mbps * bw, t.range_m * scale) for t in model.base_tiers
    )
    return ChannelProfile(
        channel_id=channel.id,
        tiers=tiers,
        interference_range_m=model.base_interference_range() * scale,
    )


def link_rate(
    client_position: tuple[float, float],
    ap_position: tuple[float, float],
    profile: ChannelProfile,
) -> float:
    """Rate between two points on a channel, 0 when unreachable."""
    return profile.rate_at(math.dist(client_position, ap_position))
