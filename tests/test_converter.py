"""Converter loss calibration and stage arithmetic.

The two-term loss curve has a closed form from the peak-efficiency point;
tests recompute that closed form independently and check the module against
it, plus the published datasheet anchors.
"""

import math

import numpy as np
import pytest

from pdnx.converter import (StageSpec, calibrate, efficiency_at, stage_loss, vr_footprint_area_mm2,
                            vr_loss)
from pdnx.datasets import load_datasets
from pdnx.errors import LoadExceedsRating


@pytest.fixture(scope="module")
def datasets():
    return load_datasets()


def _closed_form(v_out, eta, i_pk):
    p_fixed = v_out * i_pk * (1.0 - eta) / (2.0 * eta)
    return p_fixed, p_fixed / i_pk**2


class TestCalibration:
    def test_dsch_parameters(self, datasets):
        model = calibrate(datasets.topologies["DSCH"])
        p_ref, r_ref = _closed_form(1.0, 0.915, 10.0)
        assert model.p_fixed_w == pytest.approx(p_ref, rel=1e-12)
        assert model.r_conduction_ohm == pytest.approx(r_ref, rel=1e-12)
        assert model.p_fixed_w == pytest.approx(0.4645, rel=1e-3)
        assert model.r_conduction_ohm == pytest.approx(4.645e-3, rel=1e-3)

    def test_3lhd_parameters(self, datasets):
        model = calibrate(datasets.topologies["3LHD"])
        p_ref, r_ref = _closed_form(1.0, 0.904, 3.0)
        assert model.p_fixed_w == pytest.approx(p_ref, rel=1e-12)
        assert model.p_fixed_w == pytest.approx(0.1593, rel=1e-3)
        assert model.r_conduction_ohm == pytest.approx(17.7e-3, rel=1e-2)

    def test_dpmih_parameters(self, datasets):
        model = calibrate(datasets.topologies["DPMIH"])
        p_ref, r_ref = _closed_form(1.0, 0.900, 30.0)
        assert model.p_fixed_w == pytest.approx(p_ref, rel=1e-12)
        assert model.r_conduction_ohm == pytest.approx(r_ref, rel=1e-12)

    def test_ideal_converter_is_lossless(self, datasets):
        ideal = datasets.topologies["DSCH"].for_conversion(48.0, 1.0)
        ideal = type(ideal)(**{**ideal.__dict__, "eta_peak": 1.0})
        model = calibrate(ideal)
        assert model.p_fixed_w == 0.0 and model.r_conduction_ohm == 0.0

    @pytest.mark.parametrize("name,eta", [("DSCH", 0.915), ("DPMIH", 0.900), ("3LHD", 0.904)])
    def test_round_trip_at_peak(self, datasets, name, eta):
        topo = datasets.topologies[name]
        model = calibrate(topo)
        assert efficiency_at(model, topo, topo.i_at_peak_a) == pytest.approx(eta, rel=1e-12)

    @pytest.mark.parametrize("name", ["DSCH", "DPMIH", "3LHD"])
    def test_unimodal_over_rating_range(self, datasets, name):
        topo = datasets.topologies[name]
        model = calibrate(topo)
        loads = np.linspace(topo.i_max_a / 1000.0, topo.i_max_a, 1000)
        effs = np.array([efficiency_at(model, topo, x) for x in loads])
        peak = int(np.argmax(effs))
        assert np.all(np.diff(effs[: peak + 1]) > 0)
        assert np.all(np.diff(effs[peak:]) < 0)
        assert loads[peak] == pytest.approx(topo.i_at_peak_a, rel=2e-3)


class TestEfficiencyAt:
    def test_dsch_at_30a(self, datasets):
        topo = datasets.topologies["DSCH"]
        model = calibrate(topo)
        p, r = _closed_form(1.0, 0.915, 10.0)
        expected = 30.0 / (30.0 + p + r * 900.0)
        assert efficiency_at(model, topo, 30.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.866, abs=5e-4)

    def test_3lhd_rejects_20a(self, datasets):
        topo = datasets.topologies["3LHD"]
        model = calibrate(topo)
        with pytest.raises(LoadExceedsRating):
            efficiency_at(model, topo, 20.0)

    def test_rejects_nonpositive_load(self, datasets):
        topo = datasets.topologies["DSCH"]
        model = calibrate(topo)
        with pytest.raises(ValueError):
            efficiency_at(model, topo, 0.0)


class TestFootprint:
    def test_published_footprints(self, datasets):
        assert vr_footprint_area_mm2(datasets.topologies["DPMIH"]) == pytest.approx(
            53.3, rel=1e-2)
        assert vr_footprint_area_mm2(datasets.topologies["DSCH"]) == pytest.approx(
            7.25, rel=1e-2)
        assert vr_footprint_area_mm2(datasets.topologies["3LHD"]) == pytest.approx(
            9.02, rel=1e-2)


class TestStageLoss:
    def test_idle_shutdown_zero(self, datasets):
        topo = datasets.topologies["DSCH"]
        model = calibrate(topo)
        assert stage_loss(model, topo, [0.0], idle_shutdown=True) == 0.0

    def test_idle_keeps_switching(self, datasets):
        topo = datasets.topologies["DSCH"]
        model = calibrate(topo)
        loss = stage_loss(model, topo, [0.0], idle_shutdown=False)
        assert loss == pytest.approx(model.p_fixed_w, rel=1e-12)

    def test_48_even_vrs(self, datasets):
        topo = datasets.topologies["DSCH"]
        model = calibrate(topo)
        p, r = _closed_form(1.0, 0.915, 10.0)
        loss = stage_loss(model, topo, [20.83] * 48)
        assert loss == pytest.approx(48 * (p + r * 20.83**2), rel=1e-12)
        assert loss == pytest.approx(119.0, rel=1e-3)

    def test_single_vr_equals_curve(self, datasets):
        topo = datasets.topologies["DSCH"]
        model = calibrate(topo)
        loss = stage_loss(model, topo, [17.0])
        assert loss == pytest.approx(model.loss_w(17.0), rel=1e-15)

    def test_over_rating_extrapolates_the_curve(self, datasets):
        topo = datasets.topologies["DSCH"]
        model = calibrate(topo)
        loss = stage_loss(model, topo, [10.0, 31.0])
        assert loss == pytest.approx(
            model.loss_w(10.0) + model.loss_w(31.0), rel=1e-15)

    def test_even_split_minimizes_loss(self, datasets):
        # Conduction loss is convex in the split; any unequal division with
        # the same total loses more.
        topo = datasets.topologies["DSCH"]
        model = calibrate(topo)
        rng = np.random.default_rng(42)
        total = 400.0
        even = stage_loss(model, topo, [total / 20] * 20)
        for _ in range(25):
            shares = rng.dirichlet(np.ones(20)) * total
            if shares.max() > topo.i_max_a:
                continue
            uneven = stage_loss(model, topo, list(shares))
            assert uneven >= even - 1e-9


    @pytest.mark.parametrize("idle_shutdown", [False, True])
    def test_a_bank_loses_what_its_vrs_lose(self, datasets, idle_shutdown):
        # One rule for an idle VR serves the bank and each VR's draw.
        topo = datasets.topologies["DSCH"]
        model = calibrate(topo)
        loads = [0.0, 12.5, 0.0, 31.0, 3.0]
        total = 0.0
        for load in loads:
            total += vr_loss(model, load, idle_shutdown)
        assert stage_loss(model, topo, loads, idle_shutdown=idle_shutdown) == total
        assert vr_loss(model, 0.0, idle_shutdown) == (0.0 if idle_shutdown else model.p_fixed_w)


class TestStageRetargeting:
    def test_second_stage_keeps_output_side_loss(self, datasets):
        # 12V-to-1V reuse has the same output voltage, so the same curve.
        base = calibrate(datasets.topologies["DSCH"])
        retargeted = calibrate(datasets.topologies["DSCH"].for_conversion(12.0, 1.0))
        assert retargeted.p_fixed_w == pytest.approx(base.p_fixed_w, rel=1e-12)

    def test_first_stage_scales_with_output_voltage(self, datasets):
        model = calibrate(datasets.topologies["DPMIH"].for_conversion(48.0, 12.0))
        p_ref, r_ref = _closed_form(12.0, 0.900, 30.0)
        assert model.p_fixed_w == pytest.approx(p_ref, rel=1e-12)
        assert model.r_conduction_ohm == pytest.approx(r_ref, rel=1e-12)

    def test_stage_spec_validation(self, datasets):
        with pytest.raises(ValueError):
            StageSpec(datasets.topologies["DSCH"], "on_the_moon", 1)
        with pytest.raises(ValueError):
            StageSpec(datasets.topologies["DSCH"], "power_die", vr_count=0)
