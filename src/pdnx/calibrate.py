"""Calibration search: fit the free model parameters to reported observables.

Every target is matched by a closed form or a deterministic fixed-grid
search over its natural knob:

  a0_loss_pct    -> board lateral resistance (closed form; loss is linear)
  min_die_area   -> the c4 ampacity (closed form; the nearer of two per-net counts)
  utilizations   -> per-level ampacities (direct back-solve)
  a1_spread      -> radial demand weight (a fixed-grid scan of a two-solve closed form)
  a2_spread      -> radial demand weight (a fixed-grid scan of a two-solve closed form)

The per-VR current spread is invariant to the sheet resistance (equal-voltage
sources), so spread targets calibrate the demand profile instead; the sheet
resistance remains the knob for the horizontal loss level itself. The POL
currents are a closed-form function of the demand weight
(architecture.pol_current_curve), so the scan solves the plane twice, not
once per weight.
"""

from __future__ import annotations

import math
from dataclasses import replace

from . import architecture as arch
from . import interconnect as ic
from .datasets import Calibration, Datasets
from .errors import TargetUnreachable

_SPREAD_WEIGHT_GRID = [round(0.1 * k, 1) for k in range(0, 41)]   # 0.0 .. 4.0
_UNREACHABLE_RESIDUAL = 0.30


def _with_calibration(datasets: Datasets, calibration: Calibration) -> Datasets:
    return replace(datasets, calibration=calibration)


def _a0_loss_pct(datasets: Datasets) -> float:
    spec = arch.build_architecture("A0", None, datasets)
    return arch.evaluate(spec, datasets).total_loss_pct


def calibrate_a0_loss(datasets: Datasets, target_pct: float) -> tuple[Calibration, float]:
    """Board lateral resistance at which A0 loses target_pct of the budget.

    A0's loss is linear in the resistance, so its values at 0 and 1 ohm fix
    the line. A target below the zero-resistance loss would need a negative
    resistance and is unreachable.
    """
    cal = datasets.calibration

    def loss_pct(resistance_ohm: float) -> float:
        trial = replace(cal, pcb_lateral_resistance_ohm=resistance_ohm)
        return _a0_loss_pct(_with_calibration(datasets, trial))

    at_zero = loss_pct(0.0)
    resistance = (target_pct - at_zero) / (loss_pct(1.0) - at_zero)
    if resistance < 0:
        raise TargetUnreachable(
            f"A0 loss target {target_pct:g}% unreachable: the board rail alone "
            f"cannot bring A0 below {at_zero:.4g}%",
            best_value=0.0, best_residual=abs(at_zero - target_pct) / target_pct,
        )
    residual = abs(loss_pct(resistance) - target_pct) / target_pct
    return replace(cal, pcb_lateral_resistance_ohm=resistance), residual


def calibrate_min_die_area(datasets: Datasets, target_mm2: float) -> tuple[Calibration, float]:
    """c4 ampacity at which 1 kA needs a die of target_mm2.

    With n connections per net c4 needs ceil(2 * n / cap) * pitch^2 / (1e6 *
    ratio) of die, so n is the floor or the ceiling of the n this inverts to,
    whichever min_die_area_for_current (which sees every level) puts nearer.
    """
    cal = datasets.calibration
    c4 = datasets.levels["c4"]
    n = target_mm2 * 1e6 * c4.area_ratio_to_die * cal.policy().cap("c4") / (2 * c4.pitch_um ** 2)

    def fit(per_net: int) -> tuple[Calibration, float]:
        # Slightly under 1 kA / per_net so the ceil lands exactly on per_net.
        trial = replace(cal, ampacity_a={**cal.ampacity_a, "c4": 1000.0 / (per_net - 0.25)})
        area = arch.min_die_area_for_current(1000.0, trial.policy(),
                                             _with_calibration(datasets, trial)).area_mm2
        return trial, abs(area - target_mm2) / target_mm2

    return min(fit(max(1, math.floor(n))), fit(max(1, math.ceil(n))), key=lambda f: f[1])


def calibrate_utilizations(datasets: Datasets,
                           targets: dict[str, float]) -> tuple[Calibration, float]:
    """Back-solve ampacities so nameplate utilization hits each target fraction."""
    cal = datasets.calibration
    spec = arch.build_architecture("A1", "DSCH", datasets)
    domain_by_level = {a.level_name: a.domain_voltage_v for a in spec.stack}
    amps = dict(cal.ampacity_a)
    worst = 0.0
    for level_name, target in targets.items():
        if level_name not in domain_by_level:
            raise TargetUnreachable(f"level '{level_name}' is not on the vertical path")
        level = datasets.levels[level_name]
        current = spec.total_power_w / domain_by_level[level_name]
        count = ic.connection_count(level)
        per_net = max(1, math.floor(target * count / 2.0))
        # Slightly under I/N so the ceil lands exactly on per_net.
        amps[level_name] = current / (per_net - 0.25)
        achieved = 2.0 * per_net / count
        worst = max(worst, abs(achieved - target) / target)
    return replace(cal, ampacity_a=amps), worst


def calibrate_spread(datasets: Datasets, arch_name: str, topology: str,
                     target_lo: float, target_hi: float) -> tuple[Calibration, float]:
    currents_at = arch.pol_current_curve(
        arch.build_architecture(arch_name, topology, datasets), datasets)
    best_w, best_res = None, math.inf
    for w in _SPREAD_WEIGHT_GRID:
        currents = currents_at(w)
        lo, hi = min(currents), max(currents)
        res = 0.5 * (abs(lo - target_lo) / target_lo + abs(hi - target_hi) / target_hi)
        if res < best_res - 1e-12:
            best_w, best_res = w, res
    if best_res > _UNREACHABLE_RESIDUAL:
        raise TargetUnreachable(
            f"{arch_name} spread target [{target_lo:g}, {target_hi:g}] A unreachable: "
            f"best residual {best_res:.3f} at demand_weight {best_w:g}",
            best_value=best_w, best_residual=best_res,
        )
    return replace(datasets.calibration, demand_weight=best_w), best_res


def run_calibration(datasets: Datasets, targets: dict) -> tuple[Calibration, dict[str, float]]:
    """Apply every requested target in a fixed order; later knobs win on overlap.

    With no targets the current calibration is returned unchanged (identity).
    """
    residuals: dict[str, float] = {}
    cal = datasets.calibration
    ds = datasets

    if "utilizations" in targets:
        cal, res = calibrate_utilizations(ds, targets["utilizations"])
        ds = _with_calibration(ds, cal)
        residuals["utilizations"] = res
    if "min_die_area" in targets:
        cal, res = calibrate_min_die_area(ds, float(targets["min_die_area"]))
        ds = _with_calibration(ds, cal)
        residuals["min_die_area"] = res
    if "a0_loss_pct" in targets:
        cal, res = calibrate_a0_loss(ds, float(targets["a0_loss_pct"]))
        ds = _with_calibration(ds, cal)
        residuals["a0_loss_pct"] = res
    if "a1_spread" in targets:
        lo, hi = targets["a1_spread"]
        cal, res = calibrate_spread(ds, "A1", "DSCH", float(lo), float(hi))
        ds = _with_calibration(ds, cal)
        residuals["a1_spread"] = res
    if "a2_spread" in targets:
        lo, hi = targets["a2_spread"]
        cal, res = calibrate_spread(ds, "A2", "DSCH", float(lo), float(hi))
        ds = _with_calibration(ds, cal)
        residuals["a2_spread"] = res
    return cal, residuals
