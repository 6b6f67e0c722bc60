"""Converter topology characteristics and calibrated two-term loss curves.

A topology is summarized by its nameplate data (rating, peak-efficiency
point, component counts). The loss model is P(I) = p_fixed + r_conduction*I^2:
a load-independent switching/driving term plus an effective series conduction
term. Both parameters follow in closed form from the peak-efficiency point,
since eta(I) = v_out*I / (v_out*I + P(I)) is maximized exactly where the two
terms are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import LoadExceedsRating


@dataclass(frozen=True)
class ConverterTopology:
    """Nameplate characteristics of one converter family."""

    name: str
    v_in_v: float
    v_out_v: float
    i_max_a: float                # maximum load current
    eta_peak: float               # peak efficiency, fraction
    i_at_peak_a: float            # load current at peak efficiency
    n_switches: int
    switch_density_per_mm2: float

    def __post_init__(self):
        if not 0 < self.v_out_v < self.v_in_v:
            raise ValueError(f"{self.name}: need 0 < v_out < v_in")
        if not 0 < self.i_at_peak_a <= self.i_max_a:
            raise ValueError(f"{self.name}: need 0 < i_at_peak <= i_max")
        if not 0 < self.eta_peak <= 1.0:
            raise ValueError(f"{self.name}: eta_peak must lie in (0, 1]")
        if self.switch_density_per_mm2 <= 0:
            raise ValueError(f"{self.name}: switch_density_per_mm2 must be > 0")

    def for_conversion(self, v_in_v: float, v_out_v: float) -> "ConverterTopology":
        """Same family re-targeted to another conversion step.

        The nameplate peak point is kept at the same current; loss parameters
        then scale with the new output voltage through calibration. Used for
        intermediate stages (e.g. 48V-to-12V first stage, 12V-to-1V second
        stage) for which no separate datasheet point exists.
        """
        return replace(
            self,
            name=f"{self.name}-{v_in_v:g}to{v_out_v:g}",
            v_in_v=v_in_v,
            v_out_v=v_out_v,
        )


@dataclass(frozen=True)
class CalibratedLossModel:
    """Two-term loss curve fitted to a topology's peak-efficiency point."""

    p_fixed_w: float
    r_conduction_ohm: float

    def loss_w(self, load_a: float) -> float:
        return self.p_fixed_w + self.r_conduction_ohm * load_a ** 2


@dataclass(frozen=True)
class StageSpec:
    """One conversion stage of an architecture: topology plus where it sits."""

    topology: ConverterTopology
    placement: str                     # a key of PLACEMENTS
    vr_count: int                      # parallel VRs: the datasheet site count

    # What a placement means: the stack index (PCB side first) of the first
    # level on its die side, the VrSiteCounts field sizing its bank, and the
    # Calibration field scaling its plane's sheet resistance (None: unscaled).
    PLACEMENTS = {
        "interposer_periphery": (2, "periphery", None),
        "in_interposer": (2, "below_die", "die_grid_multiplier"),
        "power_die": (3, "below_die", "power_die_multiplier"),
    }

    def __post_init__(self):
        if self.placement not in self.PLACEMENTS:
            raise ValueError(f"unknown placement '{self.placement}'")
        if self.vr_count < 1:
            raise ValueError("vr_count must be >= 1")


def calibrate(topology: ConverterTopology) -> CalibratedLossModel:
    """Fit p_fixed and r_conduction so eta peaks at (i_at_peak, eta_peak).

    Closed form: at the peak the fixed and conduction losses are equal, so
    p_fixed = v_out * i_peak * (1 - eta) / (2 * eta) and
    r_conduction = p_fixed / i_peak^2. An ideal topology (eta_peak = 1)
    degenerates to a lossless model.
    """
    if topology.eta_peak >= 1.0:
        return CalibratedLossModel(0.0, 0.0)
    eta = topology.eta_peak
    i_pk = topology.i_at_peak_a
    p_fixed = topology.v_out_v * i_pk * (1.0 - eta) / (2.0 * eta)
    r_cond = p_fixed / i_pk ** 2
    return CalibratedLossModel(p_fixed, r_cond)


def efficiency_at(model: CalibratedLossModel, topology: ConverterTopology, load_a: float) -> float:
    """eta(load) = P_out / (P_out + losses). Raises above the current rating."""
    if load_a <= 0:
        raise ValueError("load_a must be > 0")
    if load_a > topology.i_max_a:
        raise LoadExceedsRating(
            f"{topology.name}: load {load_a:g} A exceeds rating {topology.i_max_a:g} A"
        )
    p_out = topology.v_out_v * load_a
    return p_out / (p_out + model.loss_w(load_a))


def vr_footprint_area_mm2(topology: ConverterTopology) -> float:
    """Die/interposer area of one VR instance.

    Passives are assumed to fit within the switch footprint, so the area is
    just switch count over switch density.
    """
    return topology.n_switches / topology.switch_density_per_mm2


def stage_loss(
    model: CalibratedLossModel,
    topology: ConverterTopology,
    vr_loads_a: list[float],
    idle_shutdown: bool = False,
) -> float:
    """Total conversion loss of a bank of identical VRs at the given loads.

    Each VR loses vr_loss at its load. Loads above the rating extrapolate
    the loss curve; the caller judges the rating (architecture's
    converter_rating check, which stops evaluate).
    """
    total = 0.0
    for k, load in enumerate(vr_loads_a):
        if load < 0:
            raise ValueError(f"VR {k}: load must be >= 0")
        total += vr_loss(model, load, idle_shutdown)
    return total


def vr_loss(model: CalibratedLossModel, load_a: float, idle_shutdown: bool = False) -> float:
    """One VR's conversion loss at a load >= 0. An idle VR still burns
    p_fixed (it keeps switching) unless idle_shutdown is set."""
    if load_a == 0.0:
        return 0.0 if idle_shutdown else model.p_fixed_w
    return model.loss_w(load_a)
