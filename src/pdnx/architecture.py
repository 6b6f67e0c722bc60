"""End-to-end evaluation of power delivery architectures.

Composes the interconnect, converter, placement, and grid models into a
PCB-to-POL loss breakdown. Five delivery plans are built in, each a row of
config.PLANS that lists its package stages:

  A0      reference: no package stage; the board converts 48 V to the POL
          rail, which crosses every packaging level.
  A1      single-stage conversion at the die periphery on the interposer.
  A2      single-stage conversion embedded in the interposer below the die.
  A3@12V  two stages: 48V-to-12V at the periphery, 12V-to-1V on a power die
          under the functional die.
  A3@6V   same with a 6 V intermediate rail.

Every plan is evaluated in one pass over its stages, from the POL back to
the board rail. Each stage places its VR bank, one VR per table2 site, solves
its plane for the demand of the stage downstream of it, and charges its
converter loss and its domain's vertical losses. The POL plane carries the
die current; every upstream plane carries the per-site draw of the bank it
feeds, and since its own losses add to what its stage must deliver, its
operating point is settled in closed form. Each plane is solved once: every
VR on a plane sits at one rail voltage (pdn_grid.GridProblem), so its
solution is linear in the sinks, and the operating point is the base-demand
solution scaled (pdn_grid.GridSolution.scaled). The board rail then
carries what the source-side stage draws, through the PCB plane and the
levels on that rail; when the plan has no package stage, the board also
converts, at the flat REFERENCE_EFFICIENCY. The source power is defined as
POL power plus the sum of all loss terms, so that identity holds by
construction and checks nothing.

An evaluation is a generator: it yields each plane problem it needs solved
and is sent the solution. One loop, _drive, solves what the generators
yield, so compare runs every cell's stage loop together and solves the
problems of one plane back to back, while pdn_grid's one-slot memo still
holds its factor.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Generator
from dataclasses import dataclass, replace

import numpy as np

from . import converter as conv
from . import interconnect as ic
from . import pdn_grid as grid
from . import placement as plc
from .config import ARCHITECTURE_NAMES, INPUT_VOLTAGE_V, PLANS, check_pol_voltage
from .converter import StageSpec
from .datasets import Datasets
from .errors import DegenerateGrid, LoadExceedsRating, PdnxError, Unsatisfiable, ZeroConnections
from .floats import ordered_sum
from .interconnect import UtilizationPolicy
from .placement import DieFloorplan

MIN_DIE_AREA_FLOOR_MM2 = 1.0   # stands in for what else bounds a die, such as VR footprints
REFERENCE_EFFICIENCY = 0.90    # the reference chain's one flat board-level converter
# A VR load is over its rating only beyond this relative margin. A plane
# solve is accepted at a backward error up to pdn_grid's _RESIDUAL_TOL, so a
# solved load is known to no better than that; a bank sharing its rated
# current evenly (A1+DPMIH at 800 W) must not be judged on the last bits.
_RATING_RTOL = 10 * grid._RESIDUAL_TOL


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

    def __post_init__(self):
        if not (0 < self.total_power_w < math.inf and 0 < self.pol_voltage_v < math.inf):
            raise ValueError("total_power_w and pol_voltage_v must be > 0 and finite")
        if self.stages and self.stages[-1].topology.v_out_v != self.pol_voltage_v:
            raise ValueError("final stage must end at the POL voltage")


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
) -> ArchitectureSpec:
    """Assemble one of the built-in delivery plans (config.PLANS) for a POL topology.

    A stage is retargeted to its rails (ConverterTopology.for_conversion)
    whenever they differ from its family's datasheet rails, so every plan
    follows pol_voltage_v, which must lie below the 48 V board rail and the
    plan's fixed rails (config.check_pol_voltage). Each stack level carries
    the output rail of the last stage on its PCB side; the levels before the
    first stage carry 48 V, or the POL rail when the plan has no package
    stage.
    """
    cal = datasets.calibration
    die = DieFloorplan(
        die_area_mm2 if die_area_mm2 is not None else datasets.reference_die_area_mm2,
        cal.interposer_margin_mm,
    )
    if arch_name not in ARCHITECTURE_NAMES:
        raise ValueError(f"unknown architecture '{arch_name}'")
    check_pol_voltage(arch_name, pol_voltage_v)
    stages: list[StageSpec] = []
    v_in = INPUT_VOLTAGE_V
    for placement, family, rail in PLANS[arch_name]:
        if family is None and topology_name is None:
            raise ValueError(f"{arch_name} needs a converter topology")
        family = family or topology_name
        topo = datasets.topologies[family]
        v_out = pol_voltage_v if rail is None else rail
        if (v_in, v_out) != (topo.v_in_v, topo.v_out_v):
            topo = topo.for_conversion(v_in, v_out)
        sites = StageSpec.PLACEMENTS[placement][1]
        stages.append(StageSpec(topo, placement, getattr(datasets.vr_site_counts[family], sites)))
        v_in = topo.v_out_v

    # stack index -> the output rail of the last stage before that level
    after = {StageSpec.PLACEMENTS[s.placement][0]: s.topology.v_out_v for s in stages}
    rail = INPUT_VOLTAGE_V if stages else pol_voltage_v
    stack = []
    for k, level in enumerate(datasets.stack_levels()):
        rail = after.get(k, rail)
        stack.append(StackAssignment(level, rail))
    return ArchitectureSpec(name=arch_name, stages=tuple(stages), stack=tuple(stack), die=die,
                            total_power_w=total_power_w, pol_voltage_v=pol_voltage_v)


@dataclass(frozen=True)
class _StageBank:
    """One stage's VR bank placed on its plane, with its converter model."""

    sites: list[plc.VrSite]
    checks: list[FeasibilityCheck]
    model: conv.CalibratedLossModel
    droop_ohm: float
    # (current_a, explicit_sinks=) -> the bank's plane problem at the
    # calibration's demand weight; explicit sinks are renormalised to current_a.
    problem: Callable[..., grid.GridProblem]


def _stage_bank(stage: StageSpec, die: DieFloorplan, datasets: Datasets) -> _StageBank:
    """Place a stage's VR bank and model its plane.

    Every VR needs a lattice node of its own, so a bank of more VRs than
    the largest lattice build_problem accepts raises DegenerateGrid before
    it is placed."""
    cal = datasets.calibration
    topo = stage.topology
    n_vr = stage.vr_count
    if n_vr > grid._MAX_NODES:
        raise DegenerateGrid(f"{n_vr} VR sites need a lattice node each, above the "
                             f"{grid._MAX_NODES} node limit")
    footprint = conv.vr_footprint_area_mm2(topo)
    if stage.placement == "interposer_periphery":
        sites = plc.place_periphery(die, n_vr, footprint)
        rings = 1 + max(s.ring_index for s in sites)
        check = FeasibilityCheck(
            "placement", "pass",
            f"{n_vr} periphery sites in {rings} ring(s), "
            f"band {rings * math.sqrt(footprint):.2f} mm of {die.interposer_margin_mm:g} mm",
        )
    else:
        placed = plc.place_under_die(die, n_vr, footprint)
        sites = placed.sites
        status = "warn" if placed.over_half_occupancy or placed.sites_overlap else "pass"
        detail = f"{n_vr} under-die sites, occupancy {placed.occupancy_fraction:.1%}"
        if placed.sites_overlap:
            detail += " (site footprints overlap the grid cells)"
        check = FeasibilityCheck("placement", status, detail)
    scale = StageSpec.PLACEMENTS[stage.placement][2]
    multiplier = 1.0 if scale is None else getattr(cal, scale)
    model = conv.calibrate(topo)
    # Parallel VRs share current through their own effective series
    # resistance (output droop); ideal pinned rails cannot reproduce any
    # realistic per-VR spread.
    droop = cal.droop_ohm(model)
    sites = list(sites)
    problem = functools.partial(
        grid.build_problem, die, sites,
        sheet_resistance_ohm_sq=cal.sheet_resistance_ohm_sq * multiplier,
        grid_resolution=cal.grid_resolution, rail_voltage_v=topo.v_out_v,
        demand_weight=cal.demand_weight, droop_resistance_ohm=droop,
    )
    return _StageBank(sites, [check], model, droop, problem)


# A running evaluation: it yields each plane problem it needs solved, is sent
# that problem's solution, and returns its breakdown.
_Evaluation = Generator[grid.GridProblem, grid.GridSolution, LossBreakdown]


def evaluate(spec: ArchitectureSpec, datasets: Datasets) -> LossBreakdown:
    """Compute the PCB-to-POL loss breakdown for one architecture.

    Works backward from the POL demand, one stage at a time: each stage's
    per-VR loads come from its plane solve, its losses from the calibrated
    curve, and its input feeds the stage upstream. It stops where a
    compare cell does, at the first over-rated bank: a plan stopped before
    its source-side stage raises LoadExceedsRating with the deciding check's
    detail; a plan whose every stage was evaluated returns its breakdown,
    with the converter_rating check of an over-rated source-side bank failed.
    """
    (outcome,) = _drive([_evaluate_steps(spec, datasets)])
    if isinstance(outcome, Exception):
        raise outcome
    if len(outcome.converter_losses_w) < len(spec.stages):
        raise LoadExceedsRating(outcome.feasibility[-1].detail)   # the deciding check
    return outcome


def _drive(evaluations: list[_Evaluation]) -> list:
    """Run evaluations together, solving the plane problems they yield.

    The next problem solved is one on the plane solved last, so every
    evaluation that shares a plane uses the factor in pdn_grid's one-slot
    memo before it is evicted; else one from the evaluation with the fewest
    solves so far; else the first in list order. A solve error is thrown
    back into its evaluation. Returns, per evaluation, its breakdown or the
    exception it raised.
    """
    outcomes: list = [None] * len(evaluations)
    waiting: dict[int, tuple[tuple, grid.GridProblem]] = {}   # index -> (plane key, problem)
    solves = [0] * len(evaluations)

    def advance(k: int, step: Callable, arg) -> None:
        try:
            problem = step(arg)
        except StopIteration as done:
            outcomes[k] = done.value
        except Exception as exc:
            outcomes[k] = exc
        else:
            waiting[k] = (grid.plane_key(problem), problem)

    for k, run in enumerate(evaluations):
        advance(k, run.send, None)
    plane = None
    while waiting:
        k = min((k for k, (key, _) in waiting.items() if key == plane),
                default=min(waiting, key=lambda k: (solves[k], k)))
        plane, problem = waiting.pop(k)
        solves[k] += 1
        try:
            solution = grid.solve_dc(problem)
        except Exception as exc:
            advance(k, evaluations[k].throw, exc)
        else:
            advance(k, evaluations[k].send, solution)
    return outcomes


def _domain_vertical_losses(spec, datasets, usage, domain_voltage_v: float,
                            current_a: float) -> dict[str, float]:
    """Loss of each vertical level in one voltage domain at that domain's current.

    usage maps each level to its UtilizationEntry, whose per-net count is
    the level's provisioned connections. A level that must carry current
    but has no connection sites raises ZeroConnections. Levels come in
    stack order, so sums over the result are reproducible.
    """
    losses = {}
    for a in spec.stack:
        if a.domain_voltage_v != domain_voltage_v:
            continue
        entry = usage[a.level_name]
        if entry.available == 0 and current_a > 0:
            raise ZeroConnections(
                f"{a.level_name} has no connection sites on a "
                f"{spec.die.die_area_mm2:g} mm2 die but must carry {current_a:.4g} A "
                f"at {domain_voltage_v:g} V"
            )
        losses[a.level_name] = ic.level_loss(datasets.levels[a.level_name], current_a,
                                             max(entry.per_net_count, 1))
    return losses


def _over_rating(load_a: float, topo: conv.ConverterTopology) -> bool:
    return load_a > topo.i_max_a * (1.0 + _RATING_RTOL)


def _evaluate_steps(spec: ArchitectureSpec, datasets: Datasets) -> _Evaluation:
    """evaluate as a generator: yields each plane problem, is sent its solution.

    The evaluation ends at the first stage, POL side first, whose
    converter_rating check fails: the cell's verdict is then fixed. A bank
    whose mean per-VR load is over its rating fails before its plane is
    built, so its stage is missing from the breakdown; any other bank fails
    on its plane's worst VR, once its own checks have run. Only a plan whose
    every stage was evaluated goes on to its board rail; a plan with no
    package stage starts there.
    """
    usage = {e.level: e for e in utilization_report(spec, datasets)}
    feasibility = [
        FeasibilityCheck(
            "utilization", e.status,
            f"{e.level} at {e.domain_voltage_v:g} V: {e.total_used} of {e.available} "
            f"connections ({e.utilization_fraction:.2%} vs cap {e.cap:.0%})",
        )
        for e in usage.values()
    ]
    cal = datasets.calibration
    assumptions: list[str] = []
    vertical: dict[str, float] = {}
    horizontal: dict[str, float] = {}
    per_vr: dict[str, list[float]] = {}
    converter_losses: dict[str, float] = {}
    domain_currents: dict[str, float] = {}
    # What the POL domain passes on to the die; 0 only for a POL bank decided
    # on its mean before its plane is built, which evaluate and _verdict drop.
    pol_power = 0.0
    demand_w = spec.total_power_w      # what the stage being visited must supply
    downstream: list | None = None     # (site, power drawn) per VR of the bank fed
    pcb_loss = 0.0                     # unless the evaluation reaches the board rail

    for n, stage in reversed(list(enumerate(spec.stages, 1))):
        topo = stage.topology
        key = f"stage{n}_{topo.name}"
        v_out = topo.v_out_v
        rail = f"{v_out:g}V"
        assumptions.append(f"{key}: VR count pinned to the datasheet site count "
                           f"({stage.vr_count})")
        # build_architecture retargets a stage whose rails are not its family's.
        datasheet = datasets.topologies.get(topo.name.split("-")[0], topo)
        if (datasheet.v_in_v, datasheet.v_out_v) != (topo.v_in_v, v_out):
            assumptions.append(
                f"{key}: reuses the {datasheet.v_in_v:g}V-to-{datasheet.v_out_v:g}V "
                f"peak-point calibration scaled to v_out={v_out:g} V"
            )

        # What the bank carries: the die current at the POL; upstream, the
        # draw of the bank it feeds, to which its own plane's losses add.
        base_power = demand_w if downstream is None else ordered_sum(p for _, p in downstream)
        i_base = base_power / v_out
        mean = i_base / stage.vr_count
        if _over_rating(mean, topo):
            # Some VR carries at least the mean (Kirchhoff's current law), so
            # the bank is over-rated however its plane shares the current: the
            # verdict is fixed before the plane is built.
            least = "" if downstream is None else "at least "
            feasibility.append(FeasibilityCheck(
                "converter_rating", "fail",
                f"{key}: mean per-VR load {least}{mean:.4g} A ({least}{i_base:.4g} A over "
                f"{stage.vr_count} VRs) exceeds the {topo.i_max_a:g} A rating of {topo.name}",
            ))
            break

        bank = _stage_bank(stage, spec.die, datasets)
        feasibility.extend(bank.checks)
        sites, model, droop = bank.sites, bank.model, bank.droop_ohm
        if downstream is None:
            # The POL plane carries the die current with the radial profile.
            i_plane = i_base
            solution = yield bank.problem(i_plane)
        else:
            # An upstream plane feeds each downstream VR its terminal output
            # plus its losses. The plane, its vertical levels and its stage's
            # droop cost exactly c*P^2 at delivered power P (the model is
            # linear), so P = base + c*P^2. One solve at the base demand gives
            # c; the smaller root is the operating point. Every source sits at
            # the rail, so the plane at the operating point is that same
            # solution scaled by i_plane / i_base, with no second solve.
            sinks = [(s.x_mm, s.y_mm, p / v_out) for s, p in downstream]
            base_solution = yield bank.problem(i_base, explicit_sinks=sinks)
            vert_base = ordered_sum(
                _domain_vertical_losses(spec, datasets, usage, v_out, i_base).values())
            droop_drop = droop * float(ordered_sum(x * x for x in base_solution.vr_currents))
            c = (base_solution.horizontal_loss_w + vert_base + droop_drop) / base_power ** 2
            discriminant = 1.0 - 4.0 * c * base_power
            if discriminant < 0:
                raise Unsatisfiable(
                    f"no intermediate-plane operating point at {v_out:g} V: the plane, "
                    f"vertical and droop losses grow faster than the power {key} "
                    f"passes on (4*c*P_base = {1.0 - discriminant:.3g} > 1)"
                )
            i_plane = 2.0 * base_power / (1.0 + math.sqrt(discriminant)) / v_out
            solution = base_solution.scaled(i_plane / i_base)

        loads = [float(x) for x in solution.vr_currents]
        plane_in = float(ordered_sum(v * i for v, i in
                                     zip(solution.vr_plane_voltages, solution.vr_currents)))
        stage_loss_w = conv.stage_loss(model, topo, loads, idle_shutdown=cal.idle_shutdown)
        worst = max(loads)
        over = _over_rating(worst, topo)
        feasibility.append(FeasibilityCheck(
            "converter_rating", "fail" if over else "pass",
            f"{key}: per-VR load up to {worst:.1f} A "
            + (f"exceeds the {topo.i_max_a:g} A rating of {topo.name}" if over
               else f"within {topo.i_max_a:g} A"),
        ))

        domain_vertical = _domain_vertical_losses(spec, datasets, usage, v_out, i_plane)
        vertical.update(domain_vertical)
        horizontal[rail] = solution.horizontal_loss_w
        per_vr[key] = loads
        converter_losses[key] = stage_loss_w
        domain_currents[rail] = i_plane
        passed = plane_in - solution.horizontal_loss_w - ordered_sum(domain_vertical.values())
        if downstream is None:
            pol_power = passed

        downstream = [
            (site, float(v_term) * load + conv.vr_loss(model, load, cal.idle_shutdown))
            for site, v_term, load in zip(sites, solution.vr_plane_voltages, loads)
        ]
        demand_w = plane_in + stage_loss_w
        # A droop branch that dissipates more than its VR delivers pulls the
        # VR's plane-side terminal, and with it what the stage asks of the
        # domain upstream, below zero. A bank beyond its rating is
        # not_reported whatever its plane shows; only what it asks of an
        # upstream plane must stay physical.
        lowest = min(p for _, p in downstream)
        if demand_w <= 0 or (lowest < 0 and (n > 1 or not over)):
            raise Unsatisfiable(
                f"{key}: its {droop:.3g} ohm per-VR output droop dissipates more than a VR "
                f"delivers, so the stage draws {demand_w:.4g} W from upstream "
                f"({lowest:.4g} W at its lowest VR)"
            )
        # A plane loss that overflowed is left to _verdict's overflow check.
        if not over and -math.inf < passed <= 0:
            raise Unsatisfiable(
                f"{key}: its {rail} plane and vertical levels lose more than its VRs put "
                f"into it ({plane_in:.4g} W after a {droop:.3g} ohm output droop), so it "
                f"passes {passed:.4g} W on"
            )
        if over and n > 1:
            # The cell is not_reported at this bank whatever lies upstream of
            # it, so neither the stages upstream nor the board rail are evaluated.
            break
    else:
        # The rail the board delivers: its PCB plane and the levels that
        # carry it. With no package stage the board converts to that rail too.
        v_board = spec.stack[0].domain_voltage_v
        board = f"{v_board:g}V"
        i_in = demand_w / v_board
        domain_currents[board] = i_in
        domain_vertical = _domain_vertical_losses(spec, datasets, usage, v_board, i_in)
        vertical.update(domain_vertical)
        pcb_loss = cal.pcb_lateral_resistance_ohm * i_in ** 2
        if not spec.stages:
            pol_power = demand_w - pcb_loss - ordered_sum(domain_vertical.values())
            eta = REFERENCE_EFFICIENCY
            assumptions.append(f"reference chain modeled as one flat {eta:.0%}-efficient "
                               f"{INPUT_VOLTAGE_V:g}V-to-{board} converter at the board")
            converter_losses["stage1_reference"] = demand_w / eta - demand_w

    vert_total = ordered_sum(vertical.values())
    conv_total = ordered_sum(converter_losses.values())
    horiz_total = ordered_sum(horizontal.values())
    total_loss = conv_total + horiz_total + vert_total + pcb_loss
    # Everything upstream of the final VR terminals, including the losses of
    # the levels that sit between its output plane and the POL, is supplied
    # by the source.
    source_power = pol_power + total_loss

    return LossBreakdown(
        architecture=spec.name,
        topology=(spec.stages[-1].topology.name.split("-")[0] if spec.stages
                  else "reference-chain"),
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


def pol_current_curve(spec: ArchitectureSpec,
                      datasets: Datasets) -> Callable[[float], list[float]]:
    """The POL stage's per-VR currents as a function of the demand weight.

    At weight w the POL plane draws D * (h + w * h*p) / (T + w * S) at its
    demand nodes, with h their uniform and h*p their radial weights and T, S
    the sums of each (pdn_grid.profile_parts). Every source sits at the rail
    voltage, so the VR currents are linear in the sinks:
    I(w) = (I_h + w * I_p) / (1 + w * S/T), where I_h and I_p solve the sinks
    D * h/T and D * h*p/T on one factor. The POL plane carries the die
    demand and nothing else, so the curve is exact for any plan evaluate
    accepts: it gives the same currents at each weight, up to rounding. The
    curve makes none of evaluate's checks on what the plane passes on, so it
    also returns currents for a plan evaluate refuses.
    """
    if not spec.stages:
        raise ValueError(f"{spec.name} has no VR bank")
    stage = spec.stages[-1]
    bank = _stage_bank(stage, spec.die, datasets)
    demand_a = spec.total_power_w / stage.topology.v_out_v
    problem = bank.problem(demand_a, demand_weight=0.0)
    nodes, uniform, radial = grid.profile_parts(spec.die, problem.grid,
                                                list(problem.source_nodes))
    total = ordered_sum(uniform)
    share = ordered_sum(radial) / total
    i_uniform = grid.solve_dc(problem).vr_currents
    i_radial = np.zeros_like(i_uniform)
    if share > 0:
        radial_problem = replace(problem, sink_nodes=nodes,
                                 sink_currents=demand_a * radial / total)
        i_radial = grid.solve_dc(radial_problem).vr_currents
    return lambda w: ((i_uniform + w * i_radial) / (1.0 + w * share)).tolist()


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


_OVERFLOW = "numerical overflow: a figure leaves the floating-point range"


def _verdict(arch_name: str, topology_name: str, breakdown: LossBreakdown) -> ComparisonCell:
    """The cell an evaluated breakdown makes."""
    figures = [breakdown.total_loss_w, breakdown.total_loss_pct, breakdown.source_power_w,
               breakdown.pol_power_w, breakdown.pcb_lateral_loss_w,
               *breakdown.vertical_losses_w.values(), *breakdown.horizontal_losses_w.values(),
               *breakdown.converter_losses_w.values(), *breakdown.domain_currents_a.values(),
               *(i for loads in breakdown.per_vr_currents_a.values() for i in loads)]
    if not all(map(math.isfinite, figures)):
        return ComparisonCell(arch_name, topology_name, "error", _OVERFLOW)
    violation = next((f.detail for f in breakdown.feasibility
                      if f.check == "converter_rating" and f.status == "fail"), None)
    if violation is not None:
        return ComparisonCell(arch_name, topology_name, "not_reported",
                              "converter rating violated: " + violation)
    return ComparisonCell(arch_name, topology_name, "ok", "", breakdown)


def _cell_steps(arch_name: str, topology_name: str, datasets: Datasets, *,
                die_area_mm2: float | None, total_power_w: float, pol_voltage_v: float,
                **calibration) -> Generator[grid.GridProblem, grid.GridSolution, ComparisonCell]:
    """One cell as a generator, as _evaluate_steps, returning the cell's verdict."""
    try:
        if calibration:
            datasets = replace(datasets, calibration=replace(datasets.calibration,
                                                             **calibration))
        spec = build_architecture(arch_name, topology_name, datasets,
                                  die_area_mm2=die_area_mm2, total_power_w=total_power_w,
                                  pol_voltage_v=pol_voltage_v)
    except ValueError as exc:
        return ComparisonCell(arch_name, topology_name, "error", str(exc))
    try:
        breakdown = yield from _evaluate_steps(spec, datasets)
    except PdnxError as exc:
        return ComparisonCell(arch_name, topology_name, "error", str(exc))
    except OverflowError:
        return ComparisonCell(arch_name, topology_name, "error", _OVERFLOW)
    return _verdict(arch_name, topology_name, breakdown)


def evaluate_plans(plans: list[tuple[str, str, Datasets, dict]]) -> list[ComparisonCell]:
    """Evaluate (architecture, topology, datasets, plan) tuples together, plane-major.

    plan holds build_architecture's die_area_mm2, total_power_w and
    pol_voltage_v; any other key is a Calibration field the cell changes
    before its plan is built. Plans that share a plane solve it back to
    back on one factor (see _drive). Returns each plan's cell, judged as
    compare says: a ValueError raised while a plan is built is its error
    cell. Any other exception than a model error or an overflow that a
    cell's evaluation raises, such as the ValueError of a lattice over the
    node limit, is raised.
    """
    cells = _drive([_cell_steps(arch, topo, ds, **plan) for arch, topo, ds, plan in plans])
    for cell in cells:
        if isinstance(cell, Exception):
            raise cell
    return cells


def compare(
    arch_names: list[str],
    topology_names: list[str],
    datasets: Datasets,
    die_area_mm2: float | None = None,
    total_power_w: float = 1000.0,
    pol_voltage_v: float = 1.0,
) -> ComparisonTable:
    """Evaluate every architecture x topology cell and give each its verdict.

    A plan that cannot be built (build_architecture raises ValueError)
    makes an error cell, and so do a model error and an evaluation that
    overflows the float range or yields a non-finite figure. A converter
    bank run beyond its current rating makes a not_reported cell, on the
    check evaluate raises or records: its losses are never presented as a
    loss figure. The cell is judged at its first over-rated bank, POL side
    first, as evaluate is: the stages upstream of it are not evaluated, so a
    model error there does not make the cell an error, but the board rail
    is when every stage was. A bank too small for its current even with
    perfect sharing is judged on its mean per-VR load, before its plane is
    built, so neither its own checks nor its own figures can make the cell
    an error. Any other result is ok.

    Cells come back architecture-major, but their plane solves run
    plane-major: all cells are evaluated together, and cells that share a
    plane (A3@12V and A3@6V share a POL plane, two topologies share an A3
    intermediate plane) solve it back to back on one factor. A plan with no
    package stage ignores the topology: one evaluation serves every
    topology's cell.
    """
    cells = [(arch, topology_names[0] if PLANS.get(arch) == () else topo, topo)
             for arch in arch_names for topo in topology_names]
    evaluated = list(dict.fromkeys((arch, topo) for arch, topo, _ in cells))
    plan = {"die_area_mm2": die_area_mm2, "total_power_w": total_power_w,
            "pol_voltage_v": pol_voltage_v}
    verdicts = dict(zip(evaluated, evaluate_plans(
        [(arch, topo, datasets, plan) for arch, topo in evaluated])))
    return ComparisonTable([replace(verdicts[arch, topo], topology=shown)
                            for arch, topo, shown in cells])


@dataclass(frozen=True)
class MinDieAreaResult:
    area_mm2: float
    density_a_mm2: float
    binding_level: str


def min_die_area_for_current(demand_a: float, policy: UtilizationPolicy,
                             datasets: Datasets) -> MinDieAreaResult:
    """Smallest die area whose scaled platforms pass every usage cap.

    Platform areas scale with the die by the fixed platform/die ratios; the
    full demand current crosses every level (board-level conversion). The
    area is the largest of the floor and each level's exact minimum; the
    binding level is the first with that area, "none" if the floor is.
    """
    if demand_a < 0:
        raise ValueError("demand_a must be >= 0")
    area, binding = MIN_DIE_AREA_FLOOR_MM2, "none"
    for name in datasets.stack_levels():
        level_area = ic.min_die_area(datasets.levels[name], demand_a, policy)
        if level_area > area:
            area, binding = level_area, name
    return MinDieAreaResult(area, demand_a / area, binding)


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
