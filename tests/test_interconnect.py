"""Vertical interconnect: counting, resistance, loss, and sizing checks.

Expected resistances come from an independent rho*l/A oracle written out in
SI units here, never from the module under test.
"""

import math
from dataclasses import replace

import pytest

from pdnx.datasets import load_datasets
from pdnx.errors import ZeroConnections
from pdnx.interconnect import (InterconnectLevel, UtilizationPolicy, connection_count,
                               effective_level_resistance, level_loss,
                               per_connection_resistance, required_connections)


@pytest.fixture(scope="module")
def datasets():
    return load_datasets()


def _ohm_oracle(resistivity_ohm_m, height_um, cross_area_um2):
    """Independent rho*l/A in SI units."""
    return resistivity_ohm_m * (height_um * 1e-6) / (cross_area_um2 * 1e-12)


class TestConnectionCount:
    def test_bga_count(self, datasets):
        assert connection_count(datasets.levels["bga"]) == 2812

    def test_tsv_count(self, datasets):
        assert connection_count(datasets.levels["tsv"]) == 12_000_000

    def test_c4_and_die_levels(self, datasets):
        assert connection_count(datasets.levels["c4"]) == 30_000
        assert connection_count(datasets.levels["u_bump"]) == 138_888
        assert connection_count(datasets.levels["adv_pad"]) == 1_250_000

    def test_single_site_when_area_equals_pitch_squared(self):
        level = InterconnectLevel("one", 0.64, 1.4e-7, 100.0, 10.0, 800.0)
        assert connection_count(level) == 1

    def test_scaling_invariance(self, datasets):
        # area -> k*area with pitch -> sqrt(k)*pitch keeps the count.
        for level in datasets.levels.values():
            for k in (4.0, 0.25):
                scaled = InterconnectLevel(
                    level.name, level.platform_area_mm2 * k, level.resistivity_ohm_m,
                    level.cross_area_um2, level.height_um,
                    level.pitch_um * math.sqrt(k),
                )
                assert connection_count(scaled) == connection_count(level)


class TestPerConnectionResistance:
    def test_all_levels_match_oracle(self, datasets):
        for level in datasets.levels.values():
            expected = _ohm_oracle(level.resistivity_ohm_m, level.height_um,
                                   level.cross_area_um2)
            assert per_connection_resistance(level) == pytest.approx(expected, rel=1e-12)

    def test_copper_tsv_value(self, datasets):
        # 1.68e-8 ohm*m over 50 um of 20 um2 -> 42.0 mOhm
        assert per_connection_resistance(datasets.levels["tsv"]) == pytest.approx(0.042, rel=1e-12)

    def test_solder_bga_value(self, datasets):
        # 1.4e-7 ohm*m over 300 um of 125,664 um2 -> 0.334 mOhm
        assert per_connection_resistance(datasets.levels["bga"]) == pytest.approx(
            3.3422e-4, rel=1e-4)

    def test_zero_height_is_zero_ohm(self):
        level = InterconnectLevel("pad0", 500.0, 1.68e-8, 100.0, 0.0, 20.0)
        assert per_connection_resistance(level) == 0.0

    def test_doubling_cross_area_halves_resistance(self, datasets):
        for level in datasets.levels.values():
            doubled = InterconnectLevel(
                level.name, level.platform_area_mm2, level.resistivity_ohm_m,
                level.cross_area_um2 * 2.0,
                level.height_um, level.pitch_um,
            )
            assert per_connection_resistance(doubled) == pytest.approx(
                per_connection_resistance(level) / 2.0, rel=1e-12)


class TestEffectiveResistance:
    def test_parallel_division(self, datasets):
        bga = datasets.levels["bga"]
        r1 = per_connection_resistance(bga)
        assert effective_level_resistance(bga, 100) == pytest.approx(r1 / 100, rel=1e-12)
        assert effective_level_resistance(bga, 1) == r1

    def test_tsv_field(self, datasets):
        # 42 mOhm across 12,000 vias -> 3.5 uOhm
        assert effective_level_resistance(datasets.levels["tsv"], 12_000) == pytest.approx(
            3.5e-6, rel=1e-12)

    def test_zero_connections_raises(self, datasets):
        with pytest.raises(ZeroConnections):
            effective_level_resistance(datasets.levels["bga"], 0)


def _synthetic_level(per_connection_ohm: float) -> InterconnectLevel:
    # rho * h / A = per_connection_ohm with h = 50 um, A = 1000 um2.
    rho = per_connection_ohm * 1e-9 / 50e-6
    return InterconnectLevel("synth", 500.0, rho, 1000.0, 50.0, 100.0)


class TestLevelLoss:
    def test_zero_current(self, datasets):
        assert level_loss(datasets.levels["bga"], 0.0, 10) == 0.0

    def test_round_trip_doubling(self):
        # 0.5 uOhm per net at 1 kA -> 1.0 W including the ground return
        level = _synthetic_level(5e-5)
        assert level_loss(level, 1000.0, 100) == pytest.approx(1.0, rel=1e-12)

    def test_low_current_48v_case(self):
        # 10 uOhm per net at 20.8 A -> 8.65 mW
        level = _synthetic_level(1e-3)
        assert level_loss(level, 20.8, 100) == pytest.approx(2 * 20.8**2 * 1e-5, rel=1e-12)
        assert level_loss(level, 20.8, 100) == pytest.approx(8.65e-3, rel=1e-2)

    def test_quadratic_in_current(self, datasets):
        level = datasets.levels["c4"]
        assert level_loss(level, 40.0, 500) == pytest.approx(
            4.0 * level_loss(level, 20.0, 500), rel=1e-12)

    def test_nonincreasing_in_connections(self, datasets):
        level = datasets.levels["c4"]
        losses = [level_loss(level, 100.0, n) for n in (10, 50, 100, 1000)]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_stack_additivity_vs_series_oracle(self, datasets):
        levels = [datasets.levels[name] for name in datasets.stack_levels()]
        current = 37.0
        total = sum(level_loss(lv, current, 100) for lv in levels)
        series_r = sum(
            2.0 * _ohm_oracle(lv.resistivity_ohm_m, lv.height_um, lv.cross_area_um2) / 100
            for lv in levels
        )
        assert total == pytest.approx(current**2 * series_r, rel=1e-12)


class TestRequiredConnections:
    def test_zero_current(self, datasets):
        policy = datasets.calibration.policy()
        req = required_connections(datasets.levels["bga"], 0.0, policy)
        assert req.per_net_count == 0 and req.total_used == 0
        assert req.utilization_fraction == 0.0 and not req.violates_cap

    def test_bga_cap_violation(self, datasets):
        policy = UtilizationPolicy({"bga": 0.60}, {"bga": 0.5})
        req = required_connections(datasets.levels["bga"], 1000.0, policy)
        assert req.per_net_count == 2000
        assert req.total_used == 4000
        assert req.violates_cap

    def test_level_without_sites_is_infinitely_utilized(self, datasets):
        policy = datasets.calibration.policy()
        req = required_connections(datasets.levels["c4"], 10.0, policy,
                                   platform_area_mm2=1e-9)
        assert req.available == 0
        assert req.utilization_fraction == math.inf
        assert req.violates_cap

    def test_calibrated_bga_utilization_at_48v(self, datasets):
        # 1 kW at 48 V should use only a percent-class share of the BGAs.
        policy = datasets.calibration.policy()
        req = required_connections(datasets.levels["bga"], 1000.0 / 48.0, policy)
        assert 0.005 <= req.utilization_fraction <= 0.02
        assert not req.violates_cap


class TestValidation:
    def test_bad_pitch_rejected(self):
        with pytest.raises(ValueError):
            InterconnectLevel("bad", 500.0, 1.68e-8, 100.0, 10.0, 0.0)

    @pytest.mark.parametrize("field", ["platform_area_mm2", "resistivity_ohm_m",
                                       "cross_area_um2", "height_um", "pitch_um",
                                       "area_ratio_to_die"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, datasets, field, value):
        with pytest.raises(ValueError, match=f"c4: {field} must be finite"):
            replace(datasets.levels["c4"], **{field: value})

    @pytest.mark.parametrize("ratio", [0.0, -2.4])
    def test_non_positive_area_ratio_rejected(self, datasets, ratio):
        with pytest.raises(ValueError, match="c4: area_ratio_to_die must be > 0"):
            replace(datasets.levels["c4"], area_ratio_to_die=ratio)

    def test_footprint_denser_than_pitch_warns_only(self):
        with pytest.warns(UserWarning):
            InterconnectLevel("odd", 500.0, 1.68e-8, 500.0, 10.0, 20.0)
