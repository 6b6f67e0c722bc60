"""Deterministic VR placement geometry."""

import math

import pytest

from pdnx.errors import AreaExceeded, MarginExceeded
from pdnx.placement import DieFloorplan, place_periphery, place_under_die, ring_capacity

DSCH_FOOTPRINT = 5 / 0.69      # mm2
DPMIH_FOOTPRINT = 8 / 0.15


@pytest.fixture
def plan():
    return DieFloorplan(500.0, interposer_margin_mm=8.0)


class TestPeriphery:
    def test_empty(self, plan):
        assert place_periphery(plan, 0, DSCH_FOOTPRINT) == []

    def test_ring_zero_capacity(self, plan):
        # 89.44 mm of die outline at 2.69 mm site width
        width = math.sqrt(DSCH_FOOTPRINT)
        assert ring_capacity(plan, 0, width) == 33
        assert ring_capacity(plan, 0, width) == math.floor(4.0 * plan.side_mm / width)

    def test_48_sites_fill_two_rings(self, plan):
        sites = place_periphery(plan, 48, DSCH_FOOTPRINT)
        assert len(sites) == 48
        assert sum(1 for s in sites if s.ring_index == 0) == 33
        assert sum(1 for s in sites if s.ring_index == 1) == 15

    def test_four_sites_sit_mid_edge(self, plan):
        sites = place_periphery(plan, 4, 4.0)
        assert len(sites) == 4
        # one per edge: each site has exactly one zero coordinate
        for s in sites:
            assert min(abs(s.x_mm), abs(s.y_mm)) == pytest.approx(0.0, abs=1e-12)

    def test_all_outside_die_shadow(self, plan):
        half = plan.side_mm / 2
        for s in place_periphery(plan, 48, DSCH_FOOTPRINT):
            assert max(abs(s.x_mm), abs(s.y_mm)) > half

    def test_fourfold_symmetry_single_ring(self, plan):
        sites = place_periphery(plan, 8, DSCH_FOOTPRINT)
        original = {(round(s.x_mm, 9), round(s.y_mm, 9)) for s in sites}
        rotated = {(round(-y, 9), round(x, 9)) for x, y in original}
        assert rotated == original

    def test_deterministic(self, plan):
        a = place_periphery(plan, 48, DSCH_FOOTPRINT)
        b = place_periphery(plan, 48, DSCH_FOOTPRINT)
        assert a == b

    def test_margin_exceeded(self):
        tight = DieFloorplan(500.0, interposer_margin_mm=2.0)
        with pytest.raises(MarginExceeded):
            place_periphery(tight, 48, DSCH_FOOTPRINT)

    def test_sites_do_not_overlap(self, plan):
        sites = place_periphery(plan, 33, DSCH_FOOTPRINT)
        width = math.sqrt(DSCH_FOOTPRINT)
        ring0 = [s for s in sites if s.ring_index == 0]
        for i, a in enumerate(ring0):
            for b in ring0[i + 1:]:
                d = math.hypot(a.x_mm - b.x_mm, a.y_mm - b.y_mm)
                assert d >= width - 1e-9


class TestUnderDie:
    def test_empty(self, plan):
        placed = place_under_die(plan, 0, DSCH_FOOTPRINT)
        assert placed.sites == () and placed.occupancy_fraction == 0.0

    def test_single_site_at_center(self, plan):
        placed = place_under_die(plan, 1, DSCH_FOOTPRINT)
        (site,) = placed.sites
        assert site.x_mm == pytest.approx(0.0, abs=1e-12)
        assert site.y_mm == pytest.approx(0.0, abs=1e-12)
        assert placed.occupancy_fraction == pytest.approx(DSCH_FOOTPRINT / 500.0)

    def test_seven_large_sites(self, plan):
        placed = place_under_die(plan, 7, DPMIH_FOOTPRINT)
        assert len(placed.sites) == 7
        # 3x3 grid with two empty cells: coordinates sit on {-cell, 0, +cell}
        cell = plan.side_mm / 3
        allowed = {round(v, 9) for v in (-cell, 0.0, cell)}
        for s in placed.sites:
            assert round(s.x_mm, 9) in allowed
            assert round(s.y_mm, 9) in allowed
        assert placed.occupancy_fraction == pytest.approx(7 * DPMIH_FOOTPRINT / 500.0)
        assert placed.occupancy_fraction == pytest.approx(0.746, abs=1e-3)
        assert placed.over_half_occupancy

    def test_48_sites_warn_not_error(self, plan):
        placed = place_under_die(plan, 48, DSCH_FOOTPRINT)
        assert len(placed.sites) == 48
        assert placed.occupancy_fraction == pytest.approx(0.696, abs=1e-3)
        assert placed.over_half_occupancy
        assert not placed.sites_overlap

    def test_all_inside_die_shadow(self, plan):
        half = plan.side_mm / 2
        for s in place_under_die(plan, 48, DSCH_FOOTPRINT).sites:
            assert max(abs(s.x_mm), abs(s.y_mm)) < half

    def test_area_exceeded(self, plan):
        with pytest.raises(AreaExceeded):
            place_under_die(plan, 10, DPMIH_FOOTPRINT)

    def test_occupancy_consistent_with_footprints(self, plan):
        placed = place_under_die(plan, 12, 9.0)
        assert placed.occupancy_fraction == pytest.approx(
            sum(s.footprint_mm2 for s in placed.sites) / plan.die_area_mm2, rel=1e-12)

    def test_deterministic(self, plan):
        assert place_under_die(plan, 48, DSCH_FOOTPRINT) == place_under_die(
            plan, 48, DSCH_FOOTPRINT)
