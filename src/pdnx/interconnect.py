"""Vertical interconnect model: per-level connection counts, resistance, and loss.

Each packaging level (BGA field, C4 bumps, TSVs, die attach pads) is a field
of identical parallel connections. Per-connection resistance follows rho*l/A;
a level's effective resistance is the parallel combination of the connections
assigned to the power net, mirrored for the ground return.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import ZeroConnections


@dataclass(frozen=True)
class InterconnectLevel:
    """One vertical packaging level (a field of identical connections)."""

    name: str
    platform_area_mm2: float      # area hosting the connection field
    resistivity_ohm_m: float
    cross_area_um2: float         # per-connection cross section
    height_um: float              # per-connection vertical span
    pitch_um: float               # grid pitch of the field
    area_ratio_to_die: float = 1.0     # platform area / die area, used when sweeping die size

    def __post_init__(self):
        for name in ("platform_area_mm2", "resistivity_ohm_m", "cross_area_um2", "height_um",
                     "pitch_um", "area_ratio_to_die"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{self.name}: {name} must be finite, got {value!r}")
        if self.resistivity_ohm_m < 0:
            raise ValueError(f"{self.name}: resistivity_ohm_m must be >= 0")
        if self.area_ratio_to_die <= 0:
            raise ValueError(f"{self.name}: area_ratio_to_die must be > 0")
        if self.platform_area_mm2 <= 0:
            raise ValueError(f"{self.name}: platform_area_mm2 must be > 0")
        if self.cross_area_um2 <= 0:
            raise ValueError(f"{self.name}: cross_area_um2 must be > 0")
        if self.height_um < 0:
            raise ValueError(f"{self.name}: height_um must be >= 0")
        if self.pitch_um <= 0:
            raise ValueError(f"{self.name}: pitch_um must be > 0")
        if self.pitch_um ** 2 < self.cross_area_um2:
            # Dataset values win; a footprint denser than the pitch grid is
            # only suspicious, not fatal.
            warnings.warn(
                f"{self.name}: cross_area_um2 exceeds pitch^2; "
                "connection footprint overlaps the pitch grid",
                stacklevel=2,
            )


@dataclass(frozen=True)
class UtilizationPolicy:
    """Usage caps and per-connection current limits, per level name."""

    max_usage_fraction: dict[str, float] = field(default_factory=dict)
    ampacity_a: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, frac in self.max_usage_fraction.items():
            if not 0.0 < frac <= 1.0:
                raise ValueError(f"max_usage_fraction[{name}] must lie in (0, 1]")
        for name, amp in self.ampacity_a.items():
            if amp <= 0:
                raise ValueError(f"ampacity_a[{name}] must be > 0")

    def cap(self, level_name: str) -> float:
        return self.max_usage_fraction.get(level_name, 1.0)

    def ampacity(self, level_name: str) -> float:
        try:
            return self.ampacity_a[level_name]
        except KeyError:
            raise KeyError(f"no ampacity calibrated for level '{level_name}'") from None


def connection_count(level: InterconnectLevel, platform_area_mm2: float | None = None) -> int:
    """Number of connection sites on the level, square-grid packing.

    An explicit platform_area_mm2 overrides the level's own (used when
    sweeping die area with fixed platform/die ratios).
    """
    area = level.platform_area_mm2 if platform_area_mm2 is None else platform_area_mm2
    area_um2 = area * 1e6
    return int(math.floor(area_um2 / level.pitch_um ** 2))


def per_connection_resistance(level: InterconnectLevel) -> float:
    """Single-connection DC resistance rho*l/A in ohm."""
    height_m = level.height_um * 1e-6
    cross_m2 = level.cross_area_um2 * 1e-12
    return level.resistivity_ohm_m * height_m / cross_m2


def effective_level_resistance(level: InterconnectLevel, used_power_connections: int) -> float:
    """Parallel resistance of the power-net connections actually used, in ohm.

    The ground return is modeled identically by callers (same count, summed).
    """
    if used_power_connections < 1:
        raise ZeroConnections(
            f"{level.name}: need at least one power connection, got {used_power_connections}"
        )
    return per_connection_resistance(level) / used_power_connections


def level_loss(level: InterconnectLevel, current_a: float, used_power_connections: int) -> float:
    """Round-trip I^2*R loss in W: power net plus identical ground return."""
    if current_a < 0:
        raise ValueError("current_a must be >= 0")
    if current_a == 0.0:
        return 0.0
    r_net = effective_level_resistance(level, used_power_connections)
    return current_a ** 2 * (r_net + r_net)


@dataclass(frozen=True)
class ConnectionRequirement:
    """Result of sizing a level for a given current."""

    per_net_count: int            # connections per net (power; ground mirrors it)
    total_used: int               # power + ground
    available: int                # all connection sites on the level
    utilization_fraction: float   # total_used / available
    violates_cap: bool


def required_connections(
    level: InterconnectLevel,
    current_a: float,
    policy: UtilizationPolicy,
    platform_area_mm2: float | None = None,
) -> ConnectionRequirement:
    """Size the connection field for a current and check it against the usage cap.

    Connections are provisioned per net at ceil(I / ampacity) and doubled for
    the ground return. A level with no connection sites is infinitely
    utilized and violates any cap.
    """
    if current_a < 0:
        raise ValueError("current_a must be >= 0")
    available = connection_count(level, platform_area_mm2)
    cap = policy.cap(level.name)
    if current_a == 0.0:
        return ConnectionRequirement(0, 0, available, 0.0, False)
    amp = policy.ampacity(level.name)
    per_net = math.ceil(current_a / amp)
    total = 2 * per_net
    utilization = total / available if available else math.inf
    return ConnectionRequirement(per_net, total, available, utilization,
                                 utilization > cap)


def min_die_area(level: InterconnectLevel, current_a: float, policy: UtilizationPolicy) -> float:
    """Smallest die area in mm2 at which the level passes its usage cap.

    The platform is area_ratio_to_die times the die. Passing takes
    ceil(2 * ceil(I / ampacity) / cap) sites of pitch^2 / (1e6 * ratio) mm2 of
    die each; both are settled against the float arithmetic of
    required_connections, so the area passes and the next smaller float fails.
    """
    if current_a < 0:
        raise ValueError("current_a must be >= 0")
    if current_a == 0.0:
        return 0.0
    total = 2 * math.ceil(current_a / policy.ampacity(level.name))
    cap = policy.cap(level.name)
    num, den = cap.as_integer_ratio()
    needed = -(-total * den // num)   # ceil(total / cap) in exact arithmetic
    if needed > 1 and total / (needed - 1) <= cap:
        needed -= 1                   # the quotient rounds down onto the cap

    def passes(area: float) -> bool:
        return connection_count(level, level.area_ratio_to_die * area) >= needed

    area = needed * level.pitch_um ** 2 / (1e6 * level.area_ratio_to_die)
    while not passes(area):
        area = math.nextafter(area, math.inf)
    while passes(below := math.nextafter(area, 0.0)):
        area = below
    return area
