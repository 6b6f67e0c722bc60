"""Calibration search behavior beyond the acceptance-gated paths."""

import math
import sys
from dataclasses import replace

import pytest

import pdnx
from pdnx import architecture, pdn_grid
from pdnx.architecture import build_architecture, evaluate, utilization_report
from pdnx.calibrate import (_SPREAD_WEIGHT_GRID, TARGETS, calibrate_a0_loss,
                            calibrate_min_die_area, calibrate_spread,
                            calibrate_utilizations, parse_targets, run_calibration)
from pdnx.datasets import load_datasets
from pdnx.errors import ConfigError, TargetUnreachable


@pytest.fixture(scope="module")
def datasets():
    return load_datasets()


def test_the_package_attribute_is_this_module():
    # converter.calibrate is not re-exported, so once imported pdnx.calibrate
    # is always the calibration module, never the function.
    assert "calibrate" not in pdnx.__all__
    assert pdnx.calibrate is sys.modules["pdnx.calibrate"]


def test_identity_when_no_targets(datasets):
    calibration, residuals = run_calibration(datasets, {})
    assert calibration == datasets.calibration
    assert residuals == {}


def test_unknown_target_is_a_config_error(datasets):
    # A misspelt target is refused, not silently left unfitted.
    with pytest.raises(ConfigError) as raised:
        run_calibration(datasets, {"a1_sprad": (16.0, 27.0)})
    assert str(raised.value) == (f"unknown calibration target 'a1_sprad' "
                                 f"(known: {', '.join(TARGETS)})")
    with pytest.raises(ConfigError) as parsed:
        parse_targets(["a1_sprad=16:27"])
    assert str(parsed.value) == str(raised.value)


def test_a0_target_monotone_bisection(datasets):
    calibration, residual = calibrate_a0_loss(datasets, 45.0)
    assert residual < 0.01
    ds = replace(datasets, calibration=calibration)
    b = evaluate(build_architecture("A0", None, ds), ds)
    assert b.total_loss_pct == pytest.approx(45.0, abs=0.5)


def test_a0_target_is_fitted_exactly(datasets):
    calibration, residual = calibrate_a0_loss(datasets, 45.0)
    assert residual < 1e-12
    # Far above the old 5 mOhm search ceiling.
    calibration, residual = calibrate_a0_loss(datasets, 900.0)
    assert calibration.pcb_lateral_resistance_ohm > 0.005
    assert residual < 1e-12


def test_a0_target_below_zero_resistance_unreachable(datasets):
    zero = replace(datasets.calibration, pcb_lateral_resistance_ohm=0.0)
    ds = replace(datasets, calibration=zero)
    floor = evaluate(build_architecture("A0", None, ds), ds).total_loss_pct
    calibrate_a0_loss(datasets, floor + 1e-6)
    with pytest.raises(TargetUnreachable):
        calibrate_a0_loss(datasets, floor - 1e-6)


def test_a_fit_whose_residual_is_not_finite_is_unreachable(datasets):
    # At a 1e308 % target A0's fitted loss overflows to inf.
    with pytest.raises(TargetUnreachable, match="^target a0_loss_pct unreachable: the fit's "
                                                "relative residual is inf$") as raised:
        run_calibration(datasets, {"a0_loss_pct": 1e308})
    assert raised.value.best_residual == math.inf


def test_min_die_area_target(datasets):
    calibration, residual = calibrate_min_die_area(datasets, 1200.0)
    assert residual <= 1.84e-4
    ds = replace(datasets, calibration=calibration)
    result = pdnx.min_die_area_for_current(1000.0, calibration.policy(), ds)
    assert result.area_mm2 == pytest.approx(1200.0, rel=0.05)


def test_utilization_targets_back_solve(datasets):
    targets = {"bga": 0.01, "c4": 0.02, "tsv": 0.10, "adv_pad": 0.19}
    calibration, residual = calibrate_utilizations(datasets, targets)
    assert residual < 0.05
    ds = replace(datasets, calibration=calibration)
    entries = {e.level: e for e in utilization_report(
        build_architecture("A1", "DSCH", ds), ds)}
    for level, target in targets.items():
        assert entries[level].utilization_fraction == pytest.approx(target, rel=0.05)


def test_targets_apply_in_table_order(datasets):
    # utilizations and min_die_area both set the c4 ampacity. TARGETS lists
    # utilizations first, so min_die_area's c4 ampacity stands, whatever the
    # order of the request, while utilizations' other ampacities survive.
    assert list(TARGETS).index("utilizations") < list(TARGETS).index("min_die_area")
    fractions = {"bga": 0.01, "c4": 0.02}
    combined, residuals = run_calibration(
        datasets, {"min_die_area": 1200.0, "utilizations": fractions})
    first, first_residual = calibrate_utilizations(datasets, fractions)
    second, second_residual = calibrate_min_die_area(
        replace(datasets, calibration=first), 1200.0)
    assert combined == second
    assert residuals == {"utilizations": first_residual, "min_die_area": second_residual}
    alone, _ = calibrate_min_die_area(datasets, 1200.0)
    assert combined.ampacity_a["c4"] == alone.ampacity_a["c4"] != first.ampacity_a["c4"]
    assert combined.ampacity_a["bga"] == first.ampacity_a["bga"]


def test_published_a2_range_unreachable(datasets):
    # The 10-to-93 A under-die range belongs to the 100 A-class topology;
    # the 30 A-class bank cannot span it, so the search must say so and
    # carry its best residual rather than pretending.
    with pytest.raises(TargetUnreachable) as err:
        run_calibration(datasets, {"a2_spread": (10.0, 93.0)})
    assert err.value.best_residual is not None
    assert err.value.best_residual > 0.30


def test_a1_spread_target_reachable(datasets):
    calibration, residuals = run_calibration(datasets, {"a1_spread": (16.0, 27.0)})
    assert residuals["a1_spread"] <= 0.30
    assert 0.0 <= calibration.demand_weight <= 4.0


def test_spread_fit_factors_the_plane_once(datasets, monkeypatch):
    # The whole scan rests on two solves of the one A1 plane, the uniform
    # and the radial demand, which share one factorisation.
    factored, solves, evaluated = [], [], []
    factor, solve = pdn_grid._factor_block, pdn_grid.solve_dc
    monkeypatch.setattr(pdn_grid, "_factor_block",
                        lambda *a: factored.append(a[-1].lo.size) or factor(*a))
    monkeypatch.setattr(pdn_grid, "solve_dc",
                        lambda problem: solves.append(problem) or solve(problem))
    monkeypatch.setattr(architecture, "evaluate",
                        lambda *a: evaluated.append(a) or evaluate(*a))
    monkeypatch.setattr(pdn_grid, "_operator", None)
    calibrate_spread(datasets, "A1", "DSCH", 16.0, 27.0)
    assert len(solves) == 2
    assert len(factored) == 1
    assert evaluated == []


def _evaluated_scan(datasets, arch_name, target_lo, target_hi):
    """The scan as it ran before the closed form: one evaluate per weight."""
    best_w, best_res = None, math.inf
    for w in _SPREAD_WEIGHT_GRID:
        ds = replace(datasets, calibration=replace(datasets.calibration, demand_weight=w))
        b = evaluate(build_architecture(arch_name, "DSCH", ds), ds)
        currents = b.per_vr_currents_a[max(b.per_vr_currents_a)]
        res = 0.5 * (abs(min(currents) - target_lo) / target_lo
                     + abs(max(currents) - target_hi) / target_hi)
        if res < best_res - 1e-12:
            best_w, best_res = w, res
    return best_w, best_res


@pytest.mark.parametrize("arch_name,window", [
    ("A1", (15.5, 26.5)), ("A1", (16.0, 27.0)), ("A1", (16.5, 27.5)),
    ("A2", (20.0, 30.0)), ("A2", (14.0, 30.0)), ("A2", (10.0, 93.0))])
def test_closed_form_scan_fits_the_evaluated_weight(datasets, arch_name, window):
    want_w, want_res = _evaluated_scan(datasets, arch_name, *window)
    try:
        calibration, residual = calibrate_spread(datasets, arch_name, "DSCH", *window)
        got_w = calibration.demand_weight
    except TargetUnreachable as exc:
        got_w, residual = exc.best_value, exc.best_residual
        assert want_res > 0.30
    assert got_w == want_w
    assert abs(residual - want_res) <= 1e-12
