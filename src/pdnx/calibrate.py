"""Calibration search: fit the free model parameters to reported observables.

`TARGETS` lists every target with its value syntax and its fit, in the
order `run_calibration` applies them. Each fit is a closed form or a
deterministic fixed-grid search over its natural knob.

The per-VR current spread is invariant to the sheet resistance (equal-voltage
sources), so spread targets calibrate the demand profile instead; the sheet
resistance remains the knob for the horizontal loss level itself. The POL
currents are a closed-form function of the demand weight
(architecture.pol_current_curve), so the scan solves the plane twice, not
once per weight.

The fits import architecture, and so numpy, only when they run.
"""

from __future__ import annotations

import math
from dataclasses import replace

from . import interconnect as ic
from .datasets import Calibration, Datasets
from .errors import ConfigError, TargetUnreachable

_SPREAD_WEIGHT_GRID = [round(0.1 * k, 1) for k in range(0, 41)]   # 0.0 .. 4.0
_UNREACHABLE_RESIDUAL = 0.30


def calibrate_a0_loss(datasets: Datasets, target_pct: float) -> tuple[Calibration, float]:
    """Board lateral resistance at which A0 loses target_pct of the budget.

    A0's loss is linear in the resistance, so its values at 0 and 1 ohm fix
    the line. A target below the zero-resistance loss would need a negative
    resistance and is unreachable.
    """
    from . import architecture as arch
    cal = datasets.calibration
    spec = arch.build_architecture("A0", None, datasets)

    def loss_pct(resistance_ohm: float) -> float:
        trial = replace(cal, pcb_lateral_resistance_ohm=resistance_ohm)
        return arch.evaluate(spec, replace(datasets, calibration=trial)).total_loss_pct

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
    from . import architecture as arch
    cal = datasets.calibration
    c4 = datasets.levels["c4"]
    n = target_mm2 * 1e6 * c4.area_ratio_to_die * cal.policy().cap("c4") / (2 * c4.pitch_um ** 2)

    def fit(per_net: int) -> tuple[Calibration, float]:
        # Slightly under 1 kA / per_net so the ceil lands exactly on per_net.
        trial = replace(cal, ampacity_a={**cal.ampacity_a, "c4": 1000.0 / (per_net - 0.25)})
        area = arch.min_die_area_for_current(1000.0, trial.policy(),
                                             replace(datasets, calibration=trial)).area_mm2
        return trial, abs(area - target_mm2) / target_mm2

    return min(fit(max(1, math.floor(n))), fit(max(1, math.ceil(n))), key=lambda f: f[1])


def calibrate_utilizations(datasets: Datasets,
                           targets: dict[str, float]) -> tuple[Calibration, float]:
    """Back-solve ampacities so nameplate utilization hits each target fraction."""
    from . import architecture as arch
    cal = datasets.calibration
    spec = arch.build_architecture("A1", "DSCH", datasets)
    domain_by_level = {a.level_name: a.domain_voltage_v for a in spec.stack}
    amps = dict(cal.ampacity_a)
    worst = 0.0
    for level_name, target in targets.items():
        if level_name not in domain_by_level:
            raise ConfigError(f"target utilizations: level '{level_name}' "
                              "is not on the vertical path")
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
    from . import architecture as arch
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


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_positive(name: str, text: str) -> float:
    value = _number(text)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"target {name} must be a finite value > 0, got '{text}'")
    return value


def _parse_window(name: str, text: str) -> tuple[float, float]:
    bounds = [_number(part) for part in text.split(":")]
    lo, hi = bounds if len(bounds) == 2 else (math.nan, math.nan)
    if not 0 < lo < hi < math.inf:
        raise ConfigError(f"target {name} must be LO:HI with finite 0 < LO < HI, got '{text}'")
    return lo, hi


def _parse_utilizations(name: str, text: str) -> dict[str, float]:
    fractions: dict[str, float] = {}
    for chunk in text.split(","):
        level, sep, fraction_text = (part.strip() for part in chunk.partition(":"))
        if not sep:
            raise ConfigError(f"target {name} must be LEVEL:FRACTION[,...], got '{text}'")
        if level in fractions:
            raise ConfigError(f"target {name}: level '{level}' is given twice")
        fraction = _number(fraction_text)
        if not 0 < fraction <= 1:
            raise ConfigError(f"target {name}: the fraction of '{level}' must be "
                              f"in (0, 1], got '{fraction_text}'")
        fractions[level] = fraction
    return fractions


# Every target as (parse its command-line value, fit it), in the order
# run_calibration applies them: where two fits set one knob (utilizations and
# min_die_area both set the c4 ampacity) the later one wins.
TARGETS = {
    "utilizations": (_parse_utilizations, calibrate_utilizations),
    "min_die_area": (_parse_positive, calibrate_min_die_area),
    "a0_loss_pct": (_parse_positive, calibrate_a0_loss),
    "a1_spread": (_parse_window, lambda ds, window: calibrate_spread(ds, "A1", "DSCH", *window)),
    "a2_spread": (_parse_window, lambda ds, window: calibrate_spread(ds, "A2", "DSCH", *window)),
}


def _check_known(name: str) -> None:
    if name not in TARGETS:
        raise ConfigError(f"unknown calibration target '{name}' (known: {', '.join(TARGETS)})")


def parse_targets(pairs: list[str]) -> dict:
    """run_calibration's targets from NAME=VALUE; a bad one is a ConfigError naming it."""
    targets: dict = {}
    for pair in pairs:
        name, sep, text = (part.strip() for part in pair.partition("="))
        if not sep:
            raise ConfigError(f"bad target '{pair}' (want NAME=VALUE)")
        _check_known(name)
        if name in targets:
            raise ConfigError(f"target {name} is given twice")
        targets[name] = TARGETS[name][0](name, text)
    return targets


def run_calibration(datasets: Datasets, targets: dict) -> tuple[Calibration, dict[str, float]]:
    """Fit each requested target in TARGETS order; with none, return the calibration as is.

    A target not in TARGETS is a ConfigError, as in parse_targets, and a fit
    whose residual is not finite raises TargetUnreachable.
    """
    for name in targets:
        _check_known(name)
    residuals: dict[str, float] = {}
    for name, (_, fit) in TARGETS.items():
        if name in targets:
            calibration, residuals[name] = fit(datasets, targets[name])
            if not math.isfinite(residuals[name]):
                raise TargetUnreachable(f"target {name} unreachable: the fit's relative "
                                        f"residual is {residuals[name]!r}",
                                        best_residual=residuals[name])
            datasets = replace(datasets, calibration=calibration)
    return datasets.calibration, residuals
