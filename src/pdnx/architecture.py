"""End-to-end evaluation of power delivery architectures.

Composes the interconnect, converter, placement, and grid models into a
PCB-to-POL loss breakdown. Five delivery plans are built in:

  A0      reference: full conversion at the board, low voltage crosses every
          packaging level.
  A1      single-stage conversion at the die periphery on the interposer.
  A2      single-stage conversion embedded in the interposer below the die.
  A3@12V  two stages: 48V-to-12V at the periphery, 12V-to-1V on a power die
          under the functional die.
  A3@6V   same with a 6 V intermediate rail.

Power bookkeeping works backward from the POL demand. The source power
always equals POL power plus the sum of all loss terms. The intermediate
plane's own losses add to what the upstream stage must deliver; the model is
linear, so that demand is settled in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import converter as conv
from . import interconnect as ic
from . import pdn_grid as grid
from . import placement as plc
from .converter import ConverterTopology, StageSpec
from .datasets import Datasets
from .errors import PdnxError, Unsatisfiable
from .interconnect import UtilizationPolicy
from .placement import DieFloorplan

ARCHITECTURE_NAMES = ("A0", "A1", "A2", "A3@12V", "A3@6V")


@dataclass(frozen=True)
class StackAssignment:
    """One vertical level bound to the voltage domain whose current it carries."""

    level_name: str
    domain_voltage_v: float


@dataclass(frozen=True)
class ArchitectureSpec:
    """A conversion-and-placement plan ready for evaluation."""

    name: str
    stages: tuple[StageSpec, ...]            # source side first; empty = reference chain
    stack: tuple[StackAssignment, ...]       # PCB side -> die side
    die: DieFloorplan
    total_power_w: float
    pol_voltage_v: float
    input_voltage_v: float = 48.0
    intermediate_voltage_v: float | None = None
    reference_efficiency: float | None = None   # flat chain efficiency when stages is empty

    def __post_init__(self):
        if self.total_power_w <= 0 or self.pol_voltage_v <= 0:
            raise ValueError("total_power_w and pol_voltage_v must be > 0")
        if self.stages:
            if self.stages[-1].topology.v_out_v != self.pol_voltage_v:
                raise ValueError("final stage must end at the POL voltage")
        elif self.reference_efficiency is None:
            raise ValueError("reference chain needs reference_efficiency")


@dataclass
class FeasibilityCheck:
    check: str
    status: str      # pass | warn | fail
    detail: str


@dataclass
class LossBreakdown:
    """Per-category losses in W plus percent of the source-side power budget."""

    architecture: str
    topology: str
    budget_power_w: float               # the source-side power the percentages reference
    vertical_losses_w: dict[str, float]
    horizontal_losses_w: dict[str, float]
    pcb_lateral_loss_w: float
    converter_losses_w: dict[str, float]
    total_loss_w: float
    total_loss_pct: float
    source_power_w: float
    pol_power_w: float
    per_vr_currents_a: dict[str, list[float]]
    domain_currents_a: dict[str, float]
    feasibility: list[FeasibilityCheck]
    assumptions: list[str]

    def worst_status(self) -> str:
        order = {"pass": 0, "warn": 1, "fail": 2}
        worst = "pass"
        for f in self.feasibility:
            if order[f.status] > order[worst]:
                worst = f.status
        return worst


def build_architecture(
    arch_name: str,
    topology_name: str | None,
    datasets: Datasets,
    die_area_mm2: float | None = None,
    total_power_w: float = 1000.0,
    pol_voltage_v: float = 1.0,
    input_voltage_v: float = 48.0,
) -> ArchitectureSpec:
    """Assemble one of the built-in delivery plans for a given POL topology."""
    cal = datasets.calibration
    die = DieFloorplan(
        die_area_mm2 if die_area_mm2 is not None else datasets.reference_die_area_mm2,
        cal.interposer_margin_mm,
    )
    if arch_name not in ARCHITECTURE_NAMES:
        raise ValueError(f"unknown architecture '{arch_name}'")
    intermediate = {"A3@12V": 12.0, "A3@6V": 6.0}.get(arch_name)
    stages: tuple[StageSpec, ...] = ()
    if arch_name != "A0":
        if topology_name is None:
            raise ValueError(f"{arch_name} needs a converter topology")
        topo = datasets.topologies[topology_name]
        counts = datasets.vr_site_counts[topology_name]
        if arch_name == "A1":
            stages = (StageSpec(topo, "interposer_periphery",
                                vr_count_override=counts.periphery),)
        elif arch_name == "A2":
            stages = (StageSpec(topo, "in_interposer", vr_count_override=counts.below_die),)
        else:
            first_topo = datasets.topologies["DPMIH"].for_conversion(input_voltage_v,
                                                                     intermediate)
            stages = (
                StageSpec(first_topo, "interposer_periphery",
                          vr_count_override=datasets.vr_site_counts["DPMIH"].periphery),
                StageSpec(topo.for_conversion(intermediate, pol_voltage_v), "power_die",
                          vr_count_override=counts.below_die),
            )

    # The reference chain carries the die current through every level. With
    # conversion in the package, the board-side levels carry the input rail,
    # the TSVs the intermediate rail (the POL rail when there is none) and
    # the die attach the POL rail.
    if stages:
        tsv_v = intermediate if intermediate is not None else pol_voltage_v
        voltages = (input_voltage_v, input_voltage_v, tsv_v, pol_voltage_v)
    else:
        voltages = (pol_voltage_v,) * 4
    stack = tuple(StackAssignment(n, v) for n, v in zip(datasets.stack_levels(), voltages))
    return ArchitectureSpec(
        name=arch_name, stages=stages, stack=stack, die=die,
        total_power_w=total_power_w, pol_voltage_v=pol_voltage_v,
        input_voltage_v=input_voltage_v, intermediate_voltage_v=intermediate,
        reference_efficiency=None if stages else 0.90,
    )


def _place_stage(stage: StageSpec, die: DieFloorplan, n_vr: int):
    """Site list plus the lateral-plane resistance multiplier for a stage."""
    footprint = conv.vr_footprint_area_mm2(stage.topology)
    checks: list[FeasibilityCheck] = []
    if stage.placement == "interposer_periphery":
        sites = plc.place_periphery(die, n_vr, footprint)
        rings = 1 + max(s.ring_index for s in sites)
        checks.append(FeasibilityCheck(
            "placement", "pass",
            f"{n_vr} periphery sites in {rings} ring(s), "
            f"band {rings * math.sqrt(footprint):.2f} mm of {die.interposer_margin_mm:g} mm",
        ))
        return list(sites), "interposer", checks
    placed = plc.place_under_die(die, n_vr, footprint)
    status = "warn" if placed.over_half_occupancy or placed.sites_overlap else "pass"
    detail = f"{n_vr} under-die sites, occupancy {placed.occupancy_fraction:.1%}"
    if placed.sites_overlap:
        detail += " (site footprints overlap the grid cells)"
    checks.append(FeasibilityCheck("placement", status, detail))
    plane = "die_grid" if stage.placement == "in_interposer" else "power_die"
    return list(placed.sites), plane, checks


def _plane_multiplier(plane: str, datasets: Datasets) -> float:
    cal = datasets.calibration
    return {
        "interposer": 1.0,
        "die_grid": cal.die_grid_multiplier,
        "power_die": cal.power_die_multiplier,
    }[plane]


def _rating_check(stage_key: str, topo: ConverterTopology,
                  loads: list[float]) -> FeasibilityCheck:
    worst = max(loads) if loads else 0.0
    if worst > topo.i_max_a:
        return FeasibilityCheck(
            "converter_rating", "fail",
            f"{stage_key}: per-VR load up to {worst:.1f} A exceeds the "
            f"{topo.i_max_a:g} A rating of {topo.name}",
        )
    return FeasibilityCheck(
        "converter_rating", "pass",
        f"{stage_key}: per-VR load up to {worst:.1f} A within {topo.i_max_a:g} A",
    )


def evaluate(spec: ArchitectureSpec, datasets: Datasets) -> LossBreakdown:
    """Compute the PCB-to-POL loss breakdown for one architecture.

    Works backward from the POL demand: the final conversion stage's per-VR
    loads come from the rail-level grid solve, stage losses follow from the
    calibrated curves, and upstream domain currents are inflated stage by
    stage. A converter rating violation is recorded as a failed
    feasibility check; evaluate_cell turns it into a verdict.
    """
    usage = utilization_report(spec, datasets)
    feasibility = [
        FeasibilityCheck(
            "utilization", e.status,
            f"{e.level} at {e.domain_voltage_v:g} V: {e.total_used} of {e.available} "
            f"connections ({e.utilization_fraction:.2%} vs cap {e.cap:.0%})",
        )
        for e in usage
    ]
    assumptions: list[str] = []
    per_net = {e.level: e.per_net_count for e in usage}

    if not spec.stages:
        return _evaluate_reference(spec, datasets, per_net, feasibility, assumptions)
    return _evaluate_staged(spec, datasets, per_net, feasibility, assumptions)


def _domain_vertical_losses(spec, datasets, per_net, domain_voltage_v: float,
                            current_a: float) -> dict[str, float]:
    """Loss of each vertical level in one voltage domain at that domain's current.

    per_net maps each level to its provisioned connections per net. Levels
    come in stack order, so sums over the result are reproducible.
    """
    return {
        a.level_name: ic.level_loss(datasets.levels[a.level_name], current_a,
                                    max(per_net[a.level_name], 1))
        for a in spec.stack if a.domain_voltage_v == domain_voltage_v
    }


def _evaluate_reference(spec, datasets, per_net, feasibility, assumptions) -> LossBreakdown:
    cal = datasets.calibration
    i_die = spec.total_power_w / spec.pol_voltage_v
    eta = spec.reference_efficiency
    assumptions.append(
        f"reference chain modeled as one flat {eta:.0%}-efficient "
        f"{spec.input_voltage_v:g}V-to-{spec.pol_voltage_v:g}V converter at the board"
    )

    vertical = _domain_vertical_losses(spec, datasets, per_net, spec.pol_voltage_v, i_die)
    pcb_loss = cal.pcb_lateral_resistance_ohm * i_die ** 2

    conv_input = spec.total_power_w / eta
    conv_loss = conv_input - spec.total_power_w
    vert_total = sum(vertical.values())
    total_loss = conv_loss + pcb_loss + vert_total
    pol_power = spec.total_power_w - pcb_loss - vert_total

    return LossBreakdown(
        architecture=spec.name,
        topology="reference-chain",
        budget_power_w=spec.total_power_w,
        vertical_losses_w=vertical,
        horizontal_losses_w={},
        pcb_lateral_loss_w=pcb_loss,
        converter_losses_w={"stage1_reference": conv_loss},
        total_loss_w=total_loss,
        total_loss_pct=100.0 * total_loss / spec.total_power_w,
        source_power_w=conv_input,
        pol_power_w=pol_power,
        per_vr_currents_a={},
        domain_currents_a={f"{spec.pol_voltage_v:g}V": i_die},
        feasibility=feasibility,
        assumptions=assumptions,
    )


def _evaluate_staged(spec, datasets, per_net, feasibility, assumptions) -> LossBreakdown:
    cal = datasets.calibration
    i_die = spec.total_power_w / spec.pol_voltage_v

    final_stage = spec.stages[-1]
    final_key = f"stage{len(spec.stages)}_{final_stage.topology.name}"
    n_final = conv.required_vr_count(
        final_stage.topology, i_die, cal.derating, final_stage.vr_count_override
    )
    if final_stage.vr_count_override is not None:
        assumptions.append(
            f"{final_key}: VR count pinned to the datasheet site count "
            f"({final_stage.vr_count_override})"
        )
    if final_stage.topology.v_in_v != 48.0 or final_stage.topology.v_out_v != 1.0:
        assumptions.append(
            f"{final_key}: reuses the 48V-to-1V peak-point calibration scaled to "
            f"v_out={final_stage.topology.v_out_v:g} V"
        )

    sites, plane, checks = _place_stage(final_stage, spec.die, n_final)
    feasibility.extend(checks)
    model_final = conv.calibrate(final_stage.topology)
    # Parallel VRs share current through their own effective series
    # resistance (output droop); ideal pinned rails cannot reproduce any
    # realistic per-VR spread.
    droop_final = cal.droop_share_resistance_scale * model_final.r_conduction_ohm
    problem = grid.build_problem(
        spec.die, sites, i_die,
        sheet_resistance_ohm_sq=cal.sheet_resistance_ohm_sq * _plane_multiplier(plane, datasets),
        grid_resolution=cal.grid_resolution,
        rail_voltage_v=spec.pol_voltage_v,
        demand_weight=cal.demand_weight,
        droop_resistance_ohm=droop_final,
    )
    solution = grid.solve_dc(problem)
    loads_final = [float(x) for x in solution.vr_currents]
    h_final = solution.horizontal_loss_w
    plane_in_final = float(sum(v * i for v, i in
                               zip(solution.vr_plane_voltages, solution.vr_currents)))

    stage_final = conv.stage_loss(model_final, final_stage.topology, loads_final,
                                  idle_shutdown=cal.idle_shutdown)
    feasibility.append(_rating_check(final_key, final_stage.topology, loads_final))

    # Vertical levels in the POL domain carry the die current.
    vertical = _domain_vertical_losses(spec, datasets, per_net, spec.pol_voltage_v, i_die)
    vert_pol = sum(vertical.values())
    horizontal: dict[str, float] = {f"{spec.pol_voltage_v:g}V": h_final}
    per_vr: dict[str, list[float]] = {final_key: loads_final}
    converter_losses: dict[str, float] = {final_key: stage_final.total_loss_w}
    domain_currents: dict[str, float] = {f"{spec.pol_voltage_v:g}V": i_die}

    stage_input = plane_in_final + stage_final.total_loss_w

    if len(spec.stages) == 2:
        first_stage = spec.stages[0]
        first_key = f"stage1_{first_stage.topology.name}"
        v_mid = spec.intermediate_voltage_v
        assumptions.append(
            f"{first_key}: reuses the 48V-to-1V peak-point calibration scaled to "
            f"v_out={v_mid:g} V"
        )
        if first_stage.vr_count_override is not None:
            assumptions.append(
                f"{first_key}: VR count pinned to the datasheet site count "
                f"({first_stage.vr_count_override})"
            )

        # Per-site demand the intermediate plane must deliver: each final-stage
        # VR draws its own terminal output plus its own losses.
        site_powers = [
            float(v_term) * load + model_final.loss_w(load) if load > 0
            else (0.0 if cal.idle_shutdown else model_final.p_fixed_w)
            for v_term, load in zip(solution.vr_plane_voltages, loads_final)
        ]
        base_power = sum(site_powers)
        model_first = conv.calibrate(first_stage.topology)
        droop_first = cal.droop_share_resistance_scale * model_first.r_conduction_ohm

        n_first = conv.required_vr_count(
            first_stage.topology, stage_input / v_mid, cal.derating,
            first_stage.vr_count_override,
        )
        first_sites, first_plane, first_checks = _place_stage(first_stage, spec.die, n_first)
        feasibility.extend(first_checks)

        sinks = [(s.x_mm, s.y_mm, p / v_mid) for s, p in zip(sites, site_powers)]

        def solve_mid(i_mid: float) -> grid.GridSolution:
            # Explicit sinks are renormalised to i_mid, so one list serves all.
            return grid.solve_dc(grid.build_problem(
                spec.die, first_sites, i_mid,
                sheet_resistance_ohm_sq=cal.sheet_resistance_ohm_sq,
                grid_resolution=cal.grid_resolution,
                rail_voltage_v=v_mid,
                explicit_sinks=sinks,
                droop_resistance_ohm=droop_first,
            ))

        # The stage also feeds the plane, its vertical levels and its own
        # terminal droop. The model is linear, so together they cost exactly
        # c*P^2 at delivered power P, and P = base + c*P^2. One solve at the
        # base demand gives c; the smaller root is the operating point.
        i_base = base_power / v_mid
        base_solution = solve_mid(i_base)
        vert_base = sum(
            _domain_vertical_losses(spec, datasets, per_net, v_mid, i_base).values())
        # The stage-1 terminal droop also comes out of delivered power.
        droop_drop = droop_first * float(sum(x * x for x in base_solution.vr_currents))
        c = (base_solution.horizontal_loss_w + vert_base + droop_drop) / base_power ** 2
        discriminant = 1.0 - 4.0 * c * base_power
        if discriminant < 0:
            raise Unsatisfiable(
                f"no intermediate-plane operating point at {v_mid:g} V: the plane, "
                f"vertical and droop losses grow faster than the power {first_key} "
                f"passes on (4*c*P_base = {1.0 - discriminant:.3g} > 1)"
            )
        i_mid = 2.0 * base_power / (1.0 + math.sqrt(discriminant)) / v_mid
        mid_solution = solve_mid(i_mid)

        loads_first = [float(x) for x in mid_solution.vr_currents]
        h_mid = mid_solution.horizontal_loss_w
        plane_in_mid = float(sum(v * i for v, i in
                                 zip(mid_solution.vr_plane_voltages,
                                     mid_solution.vr_currents)))
        stage_first = conv.stage_loss(model_first, first_stage.topology, loads_first,
                                      idle_shutdown=cal.idle_shutdown)
        feasibility.append(_rating_check(first_key, first_stage.topology, loads_first))

        horizontal[f"{v_mid:g}V"] = h_mid
        per_vr[first_key] = loads_first
        converter_losses[first_key] = stage_first.total_loss_w
        domain_currents[f"{v_mid:g}V"] = i_mid
        vertical.update(_domain_vertical_losses(spec, datasets, per_net, v_mid, i_mid))

        stage_input = plane_in_mid + stage_first.total_loss_w

    # Source-side domain: remaining vertical levels plus the board rail.
    i_in = stage_input / spec.input_voltage_v
    domain_currents[f"{spec.input_voltage_v:g}V"] = i_in
    vertical.update(_domain_vertical_losses(spec, datasets, per_net,
                                            spec.input_voltage_v, i_in))
    pcb_loss = cal.pcb_lateral_resistance_ohm * i_in ** 2

    vert_total = sum(vertical.values())
    conv_total = sum(converter_losses.values())
    horiz_total = sum(horizontal.values())
    total_loss = conv_total + horiz_total + vert_total + pcb_loss
    h_pol = horizontal[f"{spec.pol_voltage_v:g}V"]
    pol_power = plane_in_final - h_pol - vert_pol
    # Everything upstream of the final VR terminals, including the losses of
    # the levels that sit between its output plane and the POL, is supplied
    # by the source.
    source_power = pol_power + total_loss

    topo_name = spec.stages[-1].topology.name.split("-")[0]
    return LossBreakdown(
        architecture=spec.name,
        topology=topo_name,
        budget_power_w=spec.total_power_w,
        vertical_losses_w=vertical,
        horizontal_losses_w=horizontal,
        pcb_lateral_loss_w=pcb_loss,
        converter_losses_w=converter_losses,
        total_loss_w=total_loss,
        total_loss_pct=100.0 * total_loss / spec.total_power_w,
        source_power_w=source_power,
        pol_power_w=pol_power,
        per_vr_currents_a=per_vr,
        domain_currents_a=domain_currents,
        feasibility=feasibility,
        assumptions=assumptions,
    )


@dataclass
class ComparisonCell:
    architecture: str
    topology: str
    status: str                      # ok | not_reported | error
    reason: str = ""
    breakdown: LossBreakdown | None = None


@dataclass
class ComparisonTable:
    cells: list[ComparisonCell]


def evaluate_cell(
    arch_name: str,
    topology_name: str,
    datasets: Datasets,
    die_area_mm2: float | None = None,
    total_power_w: float = 1000.0,
    pol_voltage_v: float = 1.0,
) -> ComparisonCell:
    """Evaluate one architecture x topology cell and give its verdict.

    A model error makes an error cell. A converter bank run beyond its
    current rating makes a not_reported cell: its losses are extrapolated
    and never presented as a loss figure. Any other result is ok. The
    reference chain ignores the topology (same converter either way).
    """
    try:
        spec = build_architecture(
            arch_name, topology_name, datasets, die_area_mm2=die_area_mm2,
            total_power_w=total_power_w, pol_voltage_v=pol_voltage_v,
        )
        breakdown = evaluate(spec, datasets)
    except PdnxError as exc:
        return ComparisonCell(arch_name, topology_name, "error", str(exc))
    violation = next((f.detail for f in breakdown.feasibility
                      if f.check == "converter_rating" and f.status == "fail"), None)
    if violation is not None:
        return ComparisonCell(arch_name, topology_name, "not_reported",
                              "converter rating violated: " + violation)
    return ComparisonCell(arch_name, topology_name, "ok", "", breakdown)


def compare(
    arch_names: list[str],
    topology_names: list[str],
    datasets: Datasets,
    die_area_mm2: float | None = None,
    total_power_w: float = 1000.0,
    pol_voltage_v: float = 1.0,
) -> ComparisonTable:
    """Evaluate every architecture x topology cell, architecture-major."""
    return ComparisonTable([
        evaluate_cell(arch, topo, datasets, die_area_mm2=die_area_mm2,
                      total_power_w=total_power_w, pol_voltage_v=pol_voltage_v)
        for arch in arch_names for topo in topology_names
    ])


@dataclass(frozen=True)
class MinDieAreaResult:
    area_mm2: float
    density_a_mm2: float
    binding_level: str


def min_die_area_for_current(
    demand_a: float,
    policy: UtilizationPolicy,
    datasets: Datasets,
    level_names: tuple[str, ...] | None = None,
    min_area_floor_mm2: float = 1.0,
    max_area_mm2: float = 10000.0,
) -> MinDieAreaResult:
    """Smallest die area whose scaled platforms pass every usage cap.

    Platform areas scale with the die by the fixed platform/die ratios; the
    full demand current crosses every level (board-level conversion). Bisects
    to 1 mm2 resolution. The floor stands in for whatever non-interconnect
    constraint (VR footprints) bounds a vanishing demand.
    """
    if demand_a < 0:
        raise ValueError("demand_a must be >= 0")
    names = level_names if level_names is not None else datasets.stack_levels()
    levels = [datasets.levels[n] for n in names]

    def feasible(area: float) -> tuple[bool, str]:
        for level in levels:
            platform = level.area_ratio_to_die * area
            req = ic.required_connections(level, demand_a, policy,
                                          platform_area_mm2=platform)
            if req.violates_cap:
                return False, level.name
        return True, ""

    if demand_a == 0:
        return MinDieAreaResult(min_area_floor_mm2, 0.0, "none")

    ok, _ = feasible(max_area_mm2)
    if not ok:
        raise Unsatisfiable(
            f"{demand_a:g} A cannot be delivered within the usage caps at any "
            f"die area up to {max_area_mm2:g} mm2"
        )
    lo, hi = min_area_floor_mm2, max_area_mm2
    ok_lo, binding = feasible(lo)
    if ok_lo:
        return MinDieAreaResult(lo, demand_a / lo, "none")
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        ok, level_name = feasible(mid)
        if ok:
            hi = mid
        else:
            lo = mid
            binding = level_name
    return MinDieAreaResult(hi, demand_a / hi, binding)


@dataclass
class UtilizationEntry:
    level: str
    domain_voltage_v: float
    current_a: float
    per_net_count: int
    total_used: int
    available: int
    utilization_fraction: float
    cap: float
    status: str


def utilization_report(spec: ArchitectureSpec, datasets: Datasets) -> list[UtilizationEntry]:
    """Per-level usage of the vertical path at nameplate domain currents."""
    policy = datasets.calibration.policy()
    out: list[UtilizationEntry] = []
    for assign in spec.stack:
        level = datasets.levels[assign.level_name]
        current = spec.total_power_w / assign.domain_voltage_v
        platform = level.area_ratio_to_die * spec.die.die_area_mm2
        req = ic.required_connections(level, current, policy, platform_area_mm2=platform)
        out.append(UtilizationEntry(
            level=assign.level_name,
            domain_voltage_v=assign.domain_voltage_v,
            current_a=current,
            per_net_count=req.per_net_count,
            total_used=req.total_used,
            available=req.available,
            utilization_fraction=req.utilization_fraction,
            cap=policy.cap(assign.level_name),
            status="fail" if req.violates_cap else "pass",
        ))
    return out
