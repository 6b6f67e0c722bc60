"""End-to-end architecture evaluation: bookkeeping, orderings, feasibility."""

import contextlib
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import pdnx
from pdnx import converter as conv
from pdnx import architecture, pdn_grid
from pdnx import interconnect as ic
from pdnx.architecture import (ARCHITECTURE_NAMES, MIN_DIE_AREA_FLOOR_MM2, build_architecture,
                               compare, evaluate, pol_current_curve, utilization_report)
from pdnx.calibrate import calibrate_min_die_area
from pdnx.config import PLANS
from pdnx.converter import ConverterTopology
from pdnx.datasets import load_datasets, load_raw_dataset
from pdnx.errors import (LoadExceedsRating, PdnxError, SingularSystem, Unsatisfiable,
                         ZeroConnections)
from pdnx.interconnect import UtilizationPolicy, required_connections


def one_cell(arch, topo, ds, **run):
    """The cell compare gives one architecture x topology."""
    [cell] = compare([arch], [topo], ds, **run).cells
    return cell


@pytest.fixture(scope="module")
def datasets():
    return load_datasets()


def _ideal_datasets(datasets):
    """Zero-resistance stack, lossless converters, no board rail resistance."""
    levels = {
        name: replace(level, resistivity_ohm_m=0.0)
        for name, level in datasets.levels.items()
    }
    topologies = {
        name: replace(topo, eta_peak=1.0)
        for name, topo in datasets.topologies.items()
    }
    # A truly zero-resistance plane is numerically abusive (1e15-siemens
    # edges); a nano-ohm plane is indistinguishable from ideal at watt scale.
    cal = replace(
        datasets.calibration,
        sheet_resistance_ohm_sq=1e-9,
        pcb_lateral_resistance_ohm=0.0,
        die_grid_multiplier=1.0,
        droop_share_resistance_scale=0.0,
    )
    return replace(datasets, levels=levels, topologies=topologies, calibration=cal)


class TestIdealLimit:
    def test_lossless_system_loses_nothing(self, datasets):
        ideal = _ideal_datasets(datasets)
        spec = build_architecture("A1", "DSCH", ideal)
        b = evaluate(spec, ideal)
        assert b.total_loss_w == pytest.approx(0.0, abs=1e-3)
        assert b.pol_power_w == pytest.approx(1000.0, abs=1e-3)

    def test_domain_currents_follow_conversion_ratios(self, datasets):
        ideal = _ideal_datasets(datasets)
        b = evaluate(build_architecture("A1", "DSCH", ideal), ideal)
        assert b.domain_currents_a["1V"] == pytest.approx(1000.0, rel=1e-12)
        assert b.domain_currents_a["48V"] == pytest.approx(1000.0 / 48.0, rel=1e-6)

    def test_two_stage_ratio_chain(self, datasets):
        # The nano-ohm plane leaves ~1e-4 relative float noise in the
        # reconstructed stage currents; that is the fixture, not the model.
        ideal = _ideal_datasets(datasets)
        b = evaluate(build_architecture("A3@12V", "DSCH", ideal), ideal)
        assert b.domain_currents_a["1V"] == pytest.approx(1000.0, rel=1e-12)
        assert b.domain_currents_a["12V"] == pytest.approx(1000.0 / 12.0, rel=1e-4)
        assert b.domain_currents_a["48V"] == pytest.approx(1000.0 / 48.0, rel=1e-4)


class TestEnergyBookkeeping:
    @pytest.mark.parametrize("arch", ["A1", "A2", "A3@12V", "A3@6V"])
    def test_source_equals_pol_plus_losses(self, datasets, arch):
        b = evaluate(build_architecture(arch, "DSCH", datasets), datasets)
        assert b.source_power_w == pytest.approx(
            b.pol_power_w + b.total_loss_w, rel=1e-9)

    def test_reference_identity(self, datasets):
        b = evaluate(build_architecture("A0", None, datasets), datasets)
        assert b.source_power_w == pytest.approx(
            b.pol_power_w + b.total_loss_w, rel=1e-9)

    def test_total_is_sum_of_parts(self, datasets):
        b = evaluate(build_architecture("A2", "DSCH", datasets), datasets)
        parts = (sum(b.vertical_losses_w.values())
                 + sum(b.horizontal_losses_w.values())
                 + sum(b.converter_losses_w.values())
                 + b.pcb_lateral_loss_w)
        assert b.total_loss_w == pytest.approx(parts, rel=1e-12)


@contextlib.contextmanager
def _two_solve_reference():
    """Within it, evaluate takes an upstream plane's operating point the old
    way: it builds and solves the plane again at the operating-point current,
    where GridSolution.scaled scales the base-demand solution."""
    build, solve = pdn_grid.build_problem, pdn_grid.solve_dc
    # id -> (the object, what made it); the object is kept so its id stays its own.
    built, solved = {}, {}

    def recorded_build(*args, **kwargs):
        problem = build(*args, **kwargs)
        built[id(problem)] = (problem, args, kwargs)
        return problem

    def recorded_solve(problem):
        solution = solve(problem)
        solved[id(solution)] = (solution, problem)
        return solution

    def solve_again(base_solution, k):
        _, problem = solved[id(base_solution)]
        _, (plan, sites, demand_a), kwargs = built[id(problem)]
        return solve(build(plan, sites, k * demand_a, **kwargs))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pdn_grid, "build_problem", recorded_build)
        m.setattr(pdn_grid, "solve_dc", recorded_solve)
        m.setattr(pdn_grid.GridSolution, "scaled", solve_again)
        yield


def _assert_same_breakdown(got, want, rel=1e-12) -> None:
    """Every number of two breakdowns within rel of each other; all else equal."""
    def walk(path, g, w):
        if isinstance(w, dict):
            assert list(g) == list(w), path
            for key in w:
                walk(f"{path}.{key}", g[key], w[key])
        elif isinstance(w, list):
            assert len(g) == len(w), path
            for i, (a, b) in enumerate(zip(g, w)):
                walk(f"{path}[{i}]", a, b)
        elif isinstance(w, float):
            assert abs(g - w) <= rel * abs(w), (path, g, w)
        else:
            assert g == w, path

    walk("breakdown", asdict(got), asdict(want))


class TestIntermediateOperatingPoint:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sheet=st.floats(1e-4, 2e-3), droop_scale=st.floats(0.05, 2.0),
           weight=st.floats(0.0, 8.0))
    def test_stage_output_covers_its_plane_vertical_and_droop(self, datasets, sheet,
                                                              droop_scale, weight):
        # P = base + c*P^2, checked from the reported figures: the power the
        # first stage delivers is what the final stage draws plus the
        # intermediate plane, its vertical levels and the stage-1 droop.
        cal = replace(datasets.calibration, sheet_resistance_ohm_sq=sheet,
                      droop_share_resistance_scale=droop_scale, demand_weight=weight)
        ds = replace(datasets, calibration=cal)
        for arch in ("A3@12V", "A3@6V"):
            spec = build_architecture(arch, "DSCH", ds)
            try:
                b = evaluate(spec, ds)
            except Unsatisfiable:
                continue
            v_mid = spec.stages[0].topology.v_out_v
            final_key = next(k for k in b.converter_losses_w if k.startswith("stage2_"))
            first_key = next(k for k in b.per_vr_currents_a if k.startswith("stage1_"))
            assert min(b.per_vr_currents_a[final_key]) > 0
            mid_levels = [a.level_name for a in spec.stack if a.domain_voltage_v == v_mid]
            pol_levels = [a.level_name for a in spec.stack if a.domain_voltage_v == 1.0]
            base = (b.pol_power_w + b.horizontal_losses_w["1V"]
                    + sum(b.vertical_losses_w[n] for n in pol_levels)
                    + b.converter_losses_w[final_key])
            droop = droop_scale * conv.calibrate(spec.stages[0].topology).r_conduction_ohm
            feedback = (b.horizontal_losses_w[f"{v_mid:g}V"]
                        + sum(b.vertical_losses_w[n] for n in mid_levels)
                        + droop * sum(i * i for i in b.per_vr_currents_a[first_key]))
            assert v_mid * b.domain_currents_a[f"{v_mid:g}V"] == pytest.approx(
                base + feedback, rel=1e-9), arch

    def test_two_plane_solves_per_two_stage_evaluation(self, datasets, monkeypatch):
        # One solve per plane: the intermediate plane's operating point is
        # its base-demand solution scaled.
        calls = []
        solve = pdn_grid.solve_dc

        def counting(problem):
            calls.append(problem.grid.n_nodes)
            return solve(problem)

        monkeypatch.setattr(pdn_grid, "solve_dc", counting)
        for arch in ("A3@12V", "A3@6V"):
            calls.clear()
            evaluate(build_architecture(arch, "DSCH", datasets), datasets)
            assert len(calls) == 2, arch

    @pytest.mark.parametrize("arch", ["A3@12V", "A3@6V"])
    @pytest.mark.parametrize("topo", ["DSCH", "DPMIH", "3LHD"])
    def test_equals_the_two_solve_reference(self, datasets, arch, topo):
        # At 1 kW DPMIH's and 3LHD's POL banks are over their rating, and
        # evaluate stops before the intermediate plane; at 300 W every bank
        # is within it.
        spec = build_architecture(arch, topo, datasets,
                                  total_power_w=1000.0 if topo == "DSCH" else 300.0)
        got = evaluate(spec, datasets)
        with _two_solve_reference():
            want = evaluate(spec, datasets)
        _assert_same_breakdown(got, want)

    def test_compare_equals_the_two_solve_reference(self, datasets):
        cal = replace(datasets.calibration, sheet_resistance_ohm_sq=1.3e-3,
                      droop_share_resistance_scale=1.7, demand_weight=4.0)
        ds = replace(datasets, calibration=cal)
        archs, topos = list(ARCHITECTURE_NAMES), ["DSCH", "DPMIH", "3LHD"]
        got = compare(archs, topos, ds).cells
        with _two_solve_reference():
            want = compare(archs, topos, ds).cells
        assert [(c.status, c.reason) for c in got] == [(c.status, c.reason) for c in want]
        for g, w in zip(got, want):
            if w.breakdown is not None:
                _assert_same_breakdown(g.breakdown, w.breakdown)

    def test_missing_operating_point_is_unsatisfiable(self, datasets):
        cal = replace(datasets.calibration,
                      sheet_resistance_ohm_sq=100 * datasets.calibration.sheet_resistance_ohm_sq)
        lossy = replace(datasets, calibration=cal)
        with pytest.raises(Unsatisfiable, match="no intermediate-plane operating point"):
            evaluate(build_architecture("A3@6V", "DSCH", lossy), lossy)
        table = compare(["A3@6V"], ["DSCH"], lossy)
        [cell] = table.cells
        assert cell.status == "error"
        assert cell.breakdown is None
        assert "operating point" in cell.reason
        assert not _passes_on_no_power(Unsatisfiable(cell.reason))

    @pytest.mark.parametrize("arch,v_mid", [("A3@12V", 12), ("A3@6V", 6)])
    def test_over_rated_plan_keeps_its_full_breakdown(self, datasets, arch, v_mid):
        # A plan whose every stage is evaluated goes on to the board rail,
        # even when its source-side bank's worst VR is over its rating. Here
        # three 48 V DPMIH VRs feed the DSCH bank at 1 kW, rated halfway
        # between their mean and worst loads; a rating moves no figure.
        counts = dict(datasets.vr_site_counts)
        counts["DPMIH"] = replace(counts["DPMIH"], periphery=3)
        ds = replace(datasets, vr_site_counts=counts)
        spec = build_architecture(arch, "DSCH", ds)
        stages = [f"stage2_DSCH-{v_mid}to1", f"stage1_DPMIH-48to{v_mid}"]
        loads = evaluate(spec, ds).per_vr_currents_a[stages[1]]
        rated = replace(spec.stages[0].topology,
                        i_max_a=(max(loads) + sum(loads) / len(loads)) / 2)
        spec = replace(spec, stages=(replace(spec.stages[0], topology=rated), spec.stages[1]))
        b = evaluate(spec, ds)
        assert list(b.converter_losses_w) == list(b.per_vr_currents_a) == stages
        assert b.per_vr_currents_a[stages[1]] == loads
        assert list(b.horizontal_losses_w) == ["1V", f"{v_mid}V"]
        assert list(b.domain_currents_a) == ["1V", f"{v_mid}V", "48V"]
        assert [f.status for f in b.feasibility if f.check == "converter_rating"] == \
            ["pass", "fail"]
        totals = [b.total_loss_w, b.source_power_w, b.pol_power_w, b.pcb_lateral_loss_w]
        assert all(math.isfinite(x) and x > 0 for x in totals)
        assert b.source_power_w == pytest.approx(b.pol_power_w + b.total_loss_w, rel=1e-12)

    def test_cell_is_judged_at_its_first_over_rated_bank(self, datasets):
        # At 0.06 ohm/sq the 6 V plane has no operating point (DSCH's POL
        # bank reaches it), but a DPMIH plan never does: its POL bank is
        # over-rated first, in the library as in a cell.
        cal = replace(datasets.calibration, sheet_resistance_ohm_sq=0.06)
        lossy = replace(datasets, calibration=cal)
        with pytest.raises(Unsatisfiable, match="no intermediate-plane operating point"):
            evaluate(build_architecture("A3@6V", "DSCH", lossy), lossy)
        with pytest.raises(LoadExceedsRating) as raised:
            evaluate(build_architecture("A3@6V", "DPMIH", lossy), lossy)
        cell = one_cell("A3@6V", "DPMIH", lossy)
        assert cell.status == "not_reported"
        assert cell.breakdown is None
        assert cell.reason.startswith("converter rating violated: stage2_DPMIH-6to1: ")
        assert cell.reason == "converter rating violated: " + str(raised.value)
        # Nor is a figure upstream that leaves the float range: at 1e100 W
        # the board rail's I^2 R would overflow, the bank's own figures do not.
        with pytest.raises(LoadExceedsRating) as raised:
            evaluate(build_architecture("A1", "DSCH", datasets, total_power_w=1e100), datasets)
        cell = one_cell("A1", "DSCH", datasets, total_power_w=1e100)
        assert cell.status == "not_reported"
        assert cell.reason.startswith("converter rating violated: stage1_DSCH: ")
        assert cell.reason == "converter rating violated: " + str(raised.value)


class TestReferenceArchitecture:
    def test_a0_lands_above_forty_percent(self, datasets):
        b = evaluate(build_architecture("A0", None, datasets), datasets)
        assert 40.0 <= b.total_loss_pct <= 50.0

    def test_a0_board_rail_dominates(self, datasets):
        b = evaluate(build_architecture("A0", None, datasets), datasets)
        assert b.pcb_lateral_loss_w > sum(b.vertical_losses_w.values())
        assert b.pcb_lateral_loss_w == pytest.approx(
            datasets.calibration.pcb_lateral_resistance_ohm * 1000.0**2, rel=1e-12)

    def test_a0_utilization_fails_at_reference_die(self, datasets):
        spec = build_architecture("A0", None, datasets)
        entries = {e.level: e for e in utilization_report(spec, datasets)}
        assert entries["bga"].status == "fail"
        assert entries["bga"].utilization_fraction > 0.60


class TestReferenceOracle:
    """A0 against its closed form: the board converts at a flat efficiency,
    and the POL rail crosses the PCB plane and every packaging level."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(r_pcb=st.floats(1e-7, 1e-2), power=st.floats(1.0, 5000.0),
           v_pol=st.floats(0.3, 5.0), area=st.floats(50.0, 2000.0))
    def test_a0_closed_form(self, datasets, r_pcb, power, v_pol, area):
        cal = replace(datasets.calibration, pcb_lateral_resistance_ohm=r_pcb)
        ds = replace(datasets, calibration=cal)
        b = evaluate(build_architecture("A0", None, ds, die_area_mm2=area,
                                        total_power_w=power, pol_voltage_v=v_pol), ds)
        eta, i_die = architecture.REFERENCE_EFFICIENCY, power / v_pol
        assert b.topology == "reference-chain"
        assert b.converter_losses_w == {"stage1_reference": pytest.approx(
            power * (1.0 / eta - 1.0), rel=1e-12)}
        assert b.pcb_lateral_loss_w == pytest.approx(r_pcb * i_die ** 2, rel=1e-12)
        policy = cal.policy()
        for name in ds.stack_levels():
            level = ds.levels[name]
            count = required_connections(level, i_die, policy,
                                         level.area_ratio_to_die * area).per_net_count
            assert b.vertical_losses_w[name] == pytest.approx(
                ic.level_loss(level, i_die, max(count, 1)), rel=1e-12)
        assert list(b.vertical_losses_w) == list(ds.stack_levels())
        assert b.domain_currents_a == {f"{v_pol:g}V": i_die}
        assert b.source_power_w == pytest.approx(power / eta, rel=1e-11)
        assert b.per_vr_currents_a == {} and b.horizontal_losses_w == {}
        assert [f.check for f in b.feasibility] == ["utilization"] * 4


class TestPlanTable:
    """The five built-in plans (config.PLANS) as build_architecture assembles them."""

    LEVELS = ("bga", "c4", "tsv", "adv_pad")
    # (plan, POL voltage) -> the rail of each stack level, PCB side first.
    # Every plan follows the POL voltage.
    STACKS = {("A0", 1.0): (1.0, 1.0, 1.0, 1.0), ("A0", 0.8): (0.8, 0.8, 0.8, 0.8),
              ("A1", 1.0): (48.0, 48.0, 1.0, 1.0), ("A1", 0.8): (48.0, 48.0, 0.8, 0.8),
              ("A2", 1.0): (48.0, 48.0, 1.0, 1.0), ("A2", 0.8): (48.0, 48.0, 0.8, 0.8),
              ("A3@12V", 1.0): (48.0, 48.0, 12.0, 1.0), ("A3@12V", 0.8): (48.0, 48.0, 12.0, 0.8),
              ("A3@6V", 1.0): (48.0, 48.0, 6.0, 1.0), ("A3@6V", 0.8): (48.0, 48.0, 6.0, 0.8)}
    # (plan, topology, POL voltage) -> (name, v_in, v_out, placement, VR count) per
    # stage, source side first.
    P, I, D = "interposer_periphery", "in_interposer", "power_die"
    STAGES = {
        ("A0", "DSCH", 1.0): (), ("A0", "DPMIH", 1.0): (),
        ("A1", "DSCH", 1.0): (("DSCH", 48.0, 1.0, P, 48),),
        ("A1", "DPMIH", 1.0): (("DPMIH", 48.0, 1.0, P, 8),),
        ("A2", "DSCH", 1.0): (("DSCH", 48.0, 1.0, I, 48),),
        ("A2", "DPMIH", 1.0): (("DPMIH", 48.0, 1.0, I, 7),),
        ("A3@12V", "DSCH", 1.0): (("DPMIH-48to12", 48.0, 12.0, P, 8),
                                  ("DSCH-12to1", 12.0, 1.0, D, 48)),
        ("A3@12V", "DPMIH", 1.0): (("DPMIH-48to12", 48.0, 12.0, P, 8),
                                   ("DPMIH-12to1", 12.0, 1.0, D, 7)),
        ("A3@6V", "DSCH", 1.0): (("DPMIH-48to6", 48.0, 6.0, P, 8),
                                 ("DSCH-6to1", 6.0, 1.0, D, 48)),
        ("A3@6V", "DPMIH", 1.0): (("DPMIH-48to6", 48.0, 6.0, P, 8),
                                  ("DPMIH-6to1", 6.0, 1.0, D, 7)),
        ("A1", "DSCH", 0.8): (("DSCH-48to0.8", 48.0, 0.8, P, 48),),
        ("A1", "DPMIH", 0.8): (("DPMIH-48to0.8", 48.0, 0.8, P, 8),),
        ("A2", "DSCH", 0.8): (("DSCH-48to0.8", 48.0, 0.8, I, 48),),
        ("A2", "DPMIH", 0.8): (("DPMIH-48to0.8", 48.0, 0.8, I, 7),),
        ("A3@12V", "DSCH", 0.8): (("DPMIH-48to12", 48.0, 12.0, P, 8),
                                  ("DSCH-12to0.8", 12.0, 0.8, D, 48)),
        ("A3@6V", "DPMIH", 0.8): (("DPMIH-48to6", 48.0, 6.0, P, 8),
                                  ("DPMIH-6to0.8", 6.0, 0.8, D, 7)),
    }

    def test_the_table_names_the_plans(self):
        assert ARCHITECTURE_NAMES == tuple(PLANS) == ("A0", "A1", "A2", "A3@12V", "A3@6V")

    @pytest.mark.parametrize("arch, v_pol", list(STACKS))
    def test_each_level_carries_its_rail(self, datasets, arch, v_pol):
        want = self.STACKS[arch, v_pol]
        spec = build_architecture(arch, "DSCH", datasets, pol_voltage_v=v_pol)
        assert [(a.level_name, a.domain_voltage_v) for a in spec.stack] == list(
            zip(self.LEVELS, want))
        # Every plan evaluates at either POL voltage (300 W is within every rating).
        b = evaluate(build_architecture(arch, "DSCH", datasets, total_power_w=300.0,
                                        pol_voltage_v=v_pol), datasets)
        assert b.pol_power_w > 0

    @pytest.mark.parametrize("arch, topo, v_pol", list(STAGES))
    def test_each_stage_is_pinned(self, datasets, arch, topo, v_pol):
        spec = build_architecture(arch, topo, datasets, pol_voltage_v=v_pol)
        got = tuple((s.topology.name, s.topology.v_in_v, s.topology.v_out_v, s.placement,
                     s.vr_count) for s in spec.stages)
        assert got == self.STAGES[arch, topo, v_pol]

    @pytest.mark.parametrize("arch", ["A0", "A1", "A3@12V"])
    @pytest.mark.parametrize("v_pol", [48.0, 60.0])
    def test_a_pol_voltage_at_or_above_the_board_rail_is_refused(self, datasets, arch,
                                                                  v_pol):
        with pytest.raises(ValueError, match=f"^pol_voltage_v {v_pol:g} V is not below the "
                                             "48 V board rail$"):
            build_architecture(arch, "DSCH", datasets, pol_voltage_v=v_pol)

    @pytest.mark.parametrize("arch, v_pol, rail", [("A3@12V", 20.0, 12.0), ("A3@12V", 12.0, 12.0),
                                                   ("A3@6V", 8.0, 6.0)])
    def test_a_pol_voltage_at_or_above_an_intermediate_rail_is_refused(self, datasets, arch,
                                                                       v_pol, rail):
        # Named by the plan and its rail, not by the converter it would make
        # (DSCH-12to20: need 0 < v_out < v_in).
        with pytest.raises(ValueError, match=f"^pol_voltage_v {v_pol:g} V is not below the "
                                             f"{rail:g} V intermediate rail of "
                                             f"{re.escape(arch)}$"):
            build_architecture(arch, "DSCH", datasets, pol_voltage_v=v_pol)

    @pytest.mark.parametrize("arch", ARCHITECTURE_NAMES)
    @pytest.mark.parametrize("v_pol", [-1.0, 0.0, -math.inf, math.inf, math.nan])
    def test_a_pol_voltage_that_is_not_finite_and_positive_is_refused(self, datasets, arch,
                                                                      v_pol):
        # Named as the run's value, before any stage is built (not as
        # DSCH-48to-1: need 0 < v_out < v_in).
        with pytest.raises(ValueError, match=f"^pol_voltage_v must be > 0 and finite, "
                                             f"got {re.escape(repr(v_pol))}$"):
            build_architecture(arch, "DSCH", datasets, pol_voltage_v=v_pol)

    def test_compare_gives_each_cell_the_pol_voltage_refusal(self, datasets):
        table = compare(["A0", "A1", "A3@6V"], ["DSCH", "DPMIH"], datasets, pol_voltage_v=-1.0)
        assert [(c.status, c.reason, c.breakdown) for c in table.cells] == [
            ("error", "pol_voltage_v must be > 0 and finite, got -1.0", None)] * 6

    @pytest.mark.parametrize("run, message", [
        ({"pol_voltage_v": 60.0}, "pol_voltage_v 60 V is not below the 48 V board rail"),
        ({"pol_voltage_v": 20.0}, "pol_voltage_v 20 V is not below the 12 V intermediate "
                                  "rail of A3@12V"),
        ({"total_power_w": 0.0}, "total_power_w and pol_voltage_v must be > 0 and finite"),
        ({"die_area_mm2": math.inf}, "die_area_mm2 must be > 0 and finite"),
        # 11.99999 V would print as "12V" and overwrite the intermediate
        # rail's figures, and 47.99999 V the board rail's.
        ({"pol_voltage_v": 11.99999}, "pol_voltage_v 11.99999 V is labelled as the 12 V "
                                      "intermediate rail of A3@12V"),
        ({"pol_voltage_v": 47.99999}, "pol_voltage_v 47.99999 V is labelled as the 48 V "
                                      "board rail"),
    ])
    def test_compare_makes_an_error_cell_of_a_plan_that_cannot_be_built(self, datasets, run,
                                                                        message):
        cell = one_cell("A3@12V", "DSCH", datasets, **run)
        assert (cell.status, cell.reason, cell.breakdown) == ("error", message, None)

    @pytest.mark.parametrize("arch", ARCHITECTURE_NAMES)
    def test_only_a0_needs_no_topology(self, datasets, arch):
        if arch == "A0":
            assert build_architecture(arch, None, datasets).stages == ()
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(arch)} needs a converter "
                                                 "topology$"):
                build_architecture(arch, None, datasets)


class TestProposedArchitectures:
    @pytest.mark.parametrize("arch", ["A1", "A2"])
    def test_twenty_percent_class_loss(self, datasets, arch):
        b = evaluate(build_architecture(arch, "DSCH", datasets), datasets)
        assert 15.0 <= b.total_loss_pct <= 25.0

    @pytest.mark.parametrize("arch", ["A1", "A2"])
    def test_ppdn_below_converters(self, datasets, arch):
        b = evaluate(build_architecture(arch, "DSCH", datasets), datasets)
        ppdn = (sum(b.vertical_losses_w.values())
                + sum(b.horizontal_losses_w.values()) + b.pcb_lateral_loss_w)
        conv = sum(b.converter_losses_w.values())
        assert ppdn < 0.10 * b.budget_power_w
        assert conv > 0.10 * b.budget_power_w

    def test_a1_loads_stay_inside_rating(self, datasets):
        b = evaluate(build_architecture("A1", "DSCH", datasets), datasets)
        loads = b.per_vr_currents_a["stage1_DSCH"]
        assert len(loads) == 48
        assert max(loads) <= 30.0
        assert sum(loads) == pytest.approx(1000.0, rel=1e-9)

    def test_a2_spread_wider_than_a1(self, datasets):
        b1 = evaluate(build_architecture("A1", "DSCH", datasets), datasets)
        b2 = evaluate(build_architecture("A2", "DSCH", datasets), datasets)
        l1 = b1.per_vr_currents_a["stage1_DSCH"]
        l2 = b2.per_vr_currents_a["stage1_DSCH"]
        assert (max(l2) - min(l2)) > (max(l1) - min(l1))

    def test_horizontal_loss_ordering(self, datasets):
        h = {}
        for arch in ("A1", "A3@12V", "A3@6V"):
            b = evaluate(build_architecture(arch, "DSCH", datasets), datasets)
            h[arch] = sum(b.horizontal_losses_w.values())
        assert h["A3@12V"] < h["A3@6V"] < h["A1"]

    def test_vertical_losses_negligible(self, datasets):
        b = evaluate(build_architecture("A1", "DSCH", datasets), datasets)
        assert sum(b.vertical_losses_w.values()) < 0.01 * b.total_loss_w


class TestMonotonicity:
    def test_resistivity_never_reduces_loss(self, datasets):
        base = evaluate(build_architecture("A1", "DSCH", datasets), datasets)
        levels = {
            name: replace(level, resistivity_ohm_m=level.resistivity_ohm_m * 10.0)
            for name, level in datasets.levels.items()
        }
        worse = replace(datasets, levels=levels)
        bumped = evaluate(build_architecture("A1", "DSCH", worse), worse)
        assert bumped.total_loss_w >= base.total_loss_w

    def test_better_converter_never_raises_loss(self, datasets):
        base = evaluate(build_architecture("A1", "DSCH", datasets), datasets)
        topologies = dict(datasets.topologies)
        topologies["DSCH"] = replace(topologies["DSCH"], eta_peak=0.93)
        better = replace(datasets, topologies=topologies)
        improved = evaluate(build_architecture("A1", "DSCH", better), better)
        assert improved.total_loss_w <= base.total_loss_w


class TestVrSiteCounts:
    """Each stage of a built-in plan runs one VR per table2 site."""

    # The table2 row and column each stage's count comes from, source side
    # first; None is the plan's own topology.
    SITES = {"A1": ((None, "vr_sites_periphery"),),
             "A2": ((None, "vr_sites_below_die"),),
             "A3@12V": (("DPMIH", "vr_sites_periphery"), (None, "vr_sites_below_die")),
             "A3@6V": (("DPMIH", "vr_sites_periphery"), (None, "vr_sites_below_die"))}

    @pytest.mark.parametrize("arch", list(SITES))
    @pytest.mark.parametrize("topo", ["DSCH", "DPMIH", "3LHD"])
    def test_each_stage_places_its_table2_sites(self, datasets, arch, topo):
        rows = {row["name"]: row for row in load_raw_dataset("table2")["topologies"]}
        want = [rows[name or topo][column] for name, column in self.SITES[arch]]
        # At 300 W every bank is within its rating, so evaluate places them all.
        spec = build_architecture(arch, topo, datasets, total_power_w=300.0)
        assert [stage.vr_count for stage in spec.stages] == want
        b = evaluate(spec, datasets)
        keys = [f"stage{n}_{stage.topology.name}" for n, stage in enumerate(spec.stages, 1)]
        assert [len(b.per_vr_currents_a[key]) for key in keys] == want
        # The stages are evaluated from the POL back to the source.
        pinned = [line for line in b.assumptions if "VR count pinned" in line]
        assert pinned == [f"{key}: VR count pinned to the datasheet site count ({count})"
                          for key, count in zip(keys, want)][::-1]


class TestRatingHandling:
    def test_3lhd_nonstrict_flags(self, datasets):
        spec = build_architecture("A1", "3LHD", datasets)
        with pytest.raises(LoadExceedsRating, match="^stage1_3LHD: mean per-VR load .* "
                                                    "exceeds the 12 A rating of 3LHD$"):
            evaluate(spec, datasets)

    def test_compare_marks_3lhd_not_reported(self, datasets):
        table = compare(["A1", "A2", "A3@12V", "A3@6V"], ["3LHD"], datasets)
        assert all(c.status == "not_reported" for c in table.cells)
        assert all(c.breakdown is None for c in table.cells)

    def test_compare_reference_ignores_topology(self, datasets):
        table = compare(["A0"], ["DSCH", "DPMIH"], datasets)
        assert len(table.cells) == 2
        losses = {c.breakdown.total_loss_w for c in table.cells}
        assert len(losses) == 1

    def test_compare_evaluates_the_reference_once(self, datasets, monkeypatch):
        from pdnx import architecture
        from pdnx.reporting import cell_to_csv_row
        evaluated = []
        real = architecture._evaluate_steps

        def counting(spec, *args):
            evaluated.append(spec.name)
            return real(spec, *args)

        monkeypatch.setattr(architecture, "_evaluate_steps", counting)
        topologies = ["DPMIH", "3LHD", "DSCH"]
        table = compare(["A0"], topologies, datasets)
        assert evaluated == ["A0"]
        assert [(c.architecture, c.topology) for c in table.cells] == [
            ("A0", t) for t in topologies]
        rows = [cell_to_csv_row(c).split(",", 2) for c in table.cells]
        assert [r[1] for r in rows] == topologies
        assert len({r[2] for r in rows}) == 1


class TestOverflowVerdict:
    """An evaluation that leaves the float range is an error cell, never a
    traceback or a figure."""

    @pytest.mark.parametrize("arch", ["A0", "A1", "A2", "A3@12V", "A3@6V"])
    def test_squared_load_overflow_is_an_error_cell(self, datasets, arch):
        # Rated for 1e300 A, a DSCH bank's mean per-VR load at 1e300 W is
        # within its rating, so its plane is built and its squared loads
        # overflow.
        topologies = dict(datasets.topologies)
        topologies["DSCH"] = replace(topologies["DSCH"], i_max_a=1e300)
        cell = one_cell(arch, "DSCH", replace(datasets, topologies=topologies),
                        total_power_w=1e300)
        assert cell.status == "error" and "overflow" in cell.reason
        assert cell.breakdown is None

    @pytest.mark.parametrize("arch,key", [("A1", "stage1_DSCH"), ("A2", "stage1_DSCH"),
                                          ("A3@12V", "stage2_DSCH-12to1"),
                                          ("A3@6V", "stage2_DSCH-6to1")])
    def test_bank_over_rated_on_its_mean_wins_over_its_overflow(self, datasets, arch, key):
        # At its 30 A rating the same bank is decided on its mean, before its
        # plane is built, so none of its figures is computed.
        cell = one_cell(arch, "DSCH", datasets, total_power_w=1e300)
        assert cell.status == "not_reported" and cell.breakdown is None
        assert cell.reason == (f"converter rating violated: {key}: mean per-VR load "
                               f"2.083e+298 A (1e+300 A over 48 VRs) exceeds the 30 A rating "
                               f"of {key.split('_')[1]}")

    def test_infinite_plane_loss_is_an_error_cell(self, datasets):
        cal = replace(datasets.calibration, sheet_resistance_ohm_sq=1e300)
        ds = replace(datasets, calibration=cal)
        cell = one_cell("A2", "DSCH", ds)
        assert cell.status == "error" and "overflow" in cell.reason

    def test_large_finite_power_keeps_its_verdict(self, datasets):
        cell = one_cell("A1", "DSCH", datasets, total_power_w=1e30)
        assert cell.status == "not_reported"


class TestDroopOverflowVerdict:
    """A droop that dissipates more than its VRs deliver is an error cell
    naming the stage, never a bare ValueError from a downstream model."""

    STAGED = [(a, t) for a in ("A1", "A2", "A3@12V", "A3@6V") for t in ("DSCH", "DPMIH")]

    @staticmethod
    def _with_droop(datasets, scale):
        cal = replace(datasets.calibration, droop_share_resistance_scale=scale)
        return replace(datasets, calibration=cal)

    @pytest.mark.parametrize("arch,topo", STAGED)
    def test_every_staged_cell_is_an_error_at_scale_20(self, datasets, arch, topo):
        # At 500 W no DPMIH bank's mean per-VR load is over its 100 A
        # rating, so its plane is built and its droop checked.
        power = {"DSCH": 1000.0, "DPMIH": 500.0}[topo]
        cell = one_cell(arch, topo, self._with_droop(datasets, 20.0), total_power_w=power)
        assert cell.status == "error" and cell.breakdown is None
        assert "output droop" in cell.reason and "stage" in cell.reason

    @pytest.mark.parametrize("arch", ["A1", "A2", "A3@12V", "A3@6V"])
    def test_subnormal_droop_is_an_overflow_error(self, datasets, arch):
        # A droop of about 1e-313 ohm has an infinite branch conductance, so
        # the POL solve is NaN. A3 cells used to pass the NaN currents on as
        # intermediate-plane sinks and die on a bare ValueError.
        cell = one_cell(arch, "DSCH", self._with_droop(datasets, 1e-310))
        assert cell.status == "error" and "overflow" in cell.reason

    def test_reference_chain_has_no_droop(self, datasets):
        assert one_cell("A0", "DSCH", self._with_droop(datasets, 20.0)).status == "ok"

    @pytest.mark.parametrize("scale,reason", [
        (9.32, "its 1V plane and vertical levels lose more than its VRs put into it"),
        (10.06, "W from upstream (-"), (10.87, "W from upstream (-")])
    def test_negative_pol_power_is_an_error(self, datasets, scale, reason):
        # At these scales A2+DSCH used to be ok with a POL power of -4.6,
        # -78.3 and -158.9 W; at the two larger ones one VR's draw is negative.
        cell = one_cell("A2", "DSCH", self._with_droop(datasets, scale))
        assert cell.status == "error" and cell.breakdown is None
        assert cell.reason.startswith("stage1_DSCH: its ") and reason in cell.reason
        assert _passes_on_no_power(Unsatisfiable(cell.reason))

    @pytest.mark.parametrize("scale,status", [(10.0, "ok"), (11.0, "error")])
    def test_one_negative_vr_draw_is_an_error(self, datasets, scale, status):
        # At scale 11 the POL bank still passes positive power upstream in
        # total, but one VR's terminal power is negative.
        cal = replace(datasets.calibration, droop_share_resistance_scale=scale,
                      sheet_resistance_ohm_sq=0.01, demand_weight=20.0)
        cell = one_cell("A3@12V", "DSCH", replace(datasets, calibration=cal))
        assert cell.status == status
        if status == "error":
            assert cell.reason.startswith("stage2_DSCH-12to1: its 0.0511 ohm per-VR output droop")
            assert "W from upstream (-" in cell.reason
            assert not _passes_on_no_power(Unsatisfiable(cell.reason))

    def test_scale_5_keeps_the_other_verdicts(self, datasets):
        # At 1 kW every DPMIH bank's mean per-VR load is over its rating, so
        # its droop is never checked: A2 and A3 DPMIH, once errors on it,
        # are not_reported like A1.
        ds = self._with_droop(datasets, 5.0)
        got = {(a, t): one_cell(a, t, ds) for a, t in self.STAGED}
        assert {k for k, c in got.items() if c.status == "error"} == set()
        assert got[("A1", "DSCH")].status == got[("A2", "DSCH")].status == "ok"
        for (arch, topo), cell in got.items():
            if topo == "DPMIH":
                assert cell.status == "not_reported" and "mean per-VR load" in cell.reason
        at_20 = one_cell("A2", "DPMIH", self._with_droop(datasets, 20.0))
        assert (at_20.status, at_20.reason) == ("not_reported", got[("A2", "DPMIH")].reason)


class TestMeanRatingRule:
    """compare, sweep and evaluate, in the library as in the CLI, decide a
    bank whose mean per-VR load is over its rating before its plane is
    built; the plane's worst VR decides every other bank."""

    MEAN = re.compile(r"converter rating violated: (\S+): mean per-VR load (?:at least )?"
                      r"(\S+) A \((?:at least )?(\S+) A over (\d+) VRs\)")

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arch=st.sampled_from(["A1", "A2", "A3@12V", "A3@6V"]),
           topo=st.sampled_from(["DSCH", "DPMIH", "3LHD"]),
           power=st.floats(math.log(100.0), math.log(5000.0)).map(math.exp))
    def test_a_decided_bank_is_over_rated_in_evaluate(self, datasets, arch, topo, power):
        spec = build_architecture(arch, topo, datasets, total_power_w=power)
        pol = spec.stages[-1]
        pol_key = f"stage{len(spec.stages)}_{pol.topology.name}"
        pol_mean = power / pol.topology.v_out_v / pol.vr_count
        [cell] = compare([arch], [topo], datasets, total_power_w=power).cells
        stated = self.MEAN.fullmatch(cell.reason.split(" exceeds ")[0])
        if pol_mean > pol.topology.i_max_a:
            assert cell.status == "not_reported"
            assert stated is not None and stated.group(1) == pol_key
        if stated is None:
            return
        assert cell.status == "not_reported"
        key, mean = stated.group(1), float(stated.group(2))
        # evaluate stops at the same bank, with the cell's reason.
        with pytest.raises(LoadExceedsRating) as raised:
            evaluate(spec, datasets)
        assert str(raised.value).startswith(key + ": mean per-VR load ")
        assert cell.reason == "converter rating violated: " + str(raised.value)
        # Some VR of the bank carries at least the mean: seen on the plan
        # with no rating, whose figures are those of the rated one.
        try:
            b = evaluate(_unrated(spec), datasets)
        except (PdnxError, OverflowError):
            return
        # The reason states the mean to 4 significant digits.
        assert max(b.per_vr_currents_a[key]) >= mean * (1.0 - 5e-4)
        if key == pol_key:
            assert max(b.per_vr_currents_a[key]) >= pol_mean * (1.0 - 1e-12)

    def test_an_upstream_bank_is_decided_on_its_least_current(self, datasets):
        # Two 48-to-6 DPMIH VRs feed the DSCH bank at 1.2 kW: its draw alone
        # puts them over their rating, before the 6 V plane adds its losses.
        counts = dict(datasets.vr_site_counts)
        counts["DPMIH"] = replace(counts["DPMIH"], periphery=2)
        ds = replace(datasets, vr_site_counts=counts)
        cell = one_cell("A3@6V", "DSCH", ds, total_power_w=1200.0)
        assert cell.status == "not_reported"
        stated = self.MEAN.match(cell.reason)
        assert stated is not None and stated.group(1) == "stage1_DPMIH-48to6"
        assert "mean per-VR load at least " in cell.reason
        assert float(stated.group(3)) == pytest.approx(2 * float(stated.group(2)), rel=1e-3)
        spec = build_architecture("A3@6V", "DSCH", ds, total_power_w=1200.0)
        with pytest.raises(LoadExceedsRating) as raised:
            evaluate(spec, ds)
        assert cell.reason == "converter rating violated: " + str(raised.value)
        # Once its plane is solved, each of the two carries more than the
        # stated mean: seen on the plan with no rating.
        b = evaluate(_unrated(spec), ds)
        loads = b.per_vr_currents_a["stage1_DPMIH-48to6"]
        assert min(loads) > float(stated.group(2)) > 100.0

    def test_the_plane_decides_a_bank_its_mean_does_not(self, datasets):
        # At 1.2 kW A2's 48 DSCH VRs carry 25 A each on average, within
        # their 30 A rating, but the plane loads its worst VR beyond it.
        cell = one_cell("A2", "DSCH", datasets, total_power_w=1200.0)
        assert (cell.status, cell.reason) == (
            "not_reported",
            "converter rating violated: stage1_DSCH: per-VR load up to 32.3 A exceeds the "
            "30 A rating of DSCH")

    @pytest.mark.parametrize("arch", ["A1", "A2", "A3@12V", "A3@6V"])
    @pytest.mark.parametrize("topo", ["DPMIH", "3LHD"])
    def test_a_decided_cell_builds_and_solves_no_plane(self, datasets, monkeypatch, arch, topo):
        built, solved = [], []
        build, solve = pdn_grid.build_problem, pdn_grid.solve_dc
        monkeypatch.setattr(pdn_grid, "build_problem",
                            lambda *a, **k: built.append(1) or build(*a, **k))
        monkeypatch.setattr(pdn_grid, "solve_dc", lambda p: solved.append(1) or solve(p))
        cell = one_cell(arch, topo, datasets)
        assert cell.status == "not_reported" and "mean per-VR load" in cell.reason
        with pytest.raises(LoadExceedsRating) as raised:
            evaluate(build_architecture(arch, topo, datasets), datasets)
        assert cell.reason == "converter rating violated: " + str(raised.value)
        assert (built, solved) == ([], [])


def _passes_on_no_power(exc: Unsatisfiable) -> bool:
    """Whether evaluate refused a plan because a stage's plane passes on no
    power, or because a VR of a bank fed straight from the source draws
    negative power, rather than for a missing operating point."""
    reason = str(exc)
    if "lose more than its VRs put into it" in reason:
        return True
    draw = re.match(r"stage1_\S+: its .* droop dissipates more than a VR delivers, "
                    r"so the stage draws (\S+) W", reason)
    return draw is not None and float(draw.group(1)) > 0


def _pol_currents(breakdown) -> list[float]:
    return breakdown.per_vr_currents_a[max(breakdown.per_vr_currents_a)]   # stageN sorts last


def _unrated(spec):
    """The plan with no converter rating: evaluate goes past every bank. A
    rating decides a check and where evaluate stops, never a figure."""
    return replace(spec, stages=tuple(replace(s, topology=replace(s.topology, i_max_a=math.inf))
                                      for s in spec.stages))


class TestPolCurrentCurve:
    """The two-solve closed form of the POL currents against evaluate."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arch=st.sampled_from(["A1", "A2", "A3@12V"]),
           weight=st.floats(-1.0, 50.0),
           sheet=st.floats(1e-4, 2e-3),
           droop=st.sampled_from([0.0, 0.05, 0.6, 2.0]),
           resolution=st.sampled_from([8, 9, 16, 17, 24, 33]))
    # A POL plane with a VR that draws 3.6e-9 of 1000 A.
    @example(arch="A2", weight=1.0, sheet=1.0 / 512, droop=0.05, resolution=9)
    def test_equals_evaluate_at_every_weight(self, datasets, arch, weight, sheet, droop,
                                            resolution):
        cal = replace(datasets.calibration, demand_weight=weight,
                      sheet_resistance_ohm_sq=sheet, droop_share_resistance_scale=droop,
                      grid_resolution=resolution)
        ds = replace(datasets, calibration=cal)
        spec = build_architecture(arch, "DSCH", ds)
        got = pol_current_curve(spec, ds)(weight)
        assert math.fsum(got) == pytest.approx(1000.0, rel=1e-9)
        # An A3@12V plan whose POL bank is over its rating stops before its
        # intermediate plane; with no rating it goes on, at the same POL
        # currents. A1's and A2's one bank is never decided on its mean here.
        try:
            want = _pol_currents(evaluate(_unrated(spec) if arch == "A3@12V" else spec, ds))
        except Unsatisfiable as exc:
            # A plan whose plane passes on no power has no breakdown to
            # compare with (about 3 % of draws, all of them A2); any
            # other refusal is a failure.
            if not _passes_on_no_power(exc):
                raise
            assume(False)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)

    def test_two_solves_on_one_factor(self, datasets, monkeypatch):
        factored, solved, built = [], [], []
        factor, solve, build = pdn_grid._factor_block, pdn_grid.solve_dc, pdn_grid.build_problem
        monkeypatch.setattr(pdn_grid, "_factor_block",
                            lambda *a: factored.append(1) or factor(*a))
        monkeypatch.setattr(pdn_grid, "solve_dc", lambda p: solved.append(p) or solve(p))
        monkeypatch.setattr(pdn_grid, "build_problem",
                            lambda *a, **k: built.append(1) or build(*a, **k))
        monkeypatch.setattr(pdn_grid, "_operator", None)
        curve = pol_current_curve(build_architecture("A3@12V", "DSCH", datasets), datasets)
        assert (len(built), len(solved), len(factored)) == (1, 2, 1)
        assert [curve(w) for w in (0.0, 2.5)] == [curve(w) for w in (0.0, 2.5)]

    @pytest.mark.parametrize("count", [2, 3])
    def test_no_radial_demand_leaves_a_flat_curve(self, datasets, monkeypatch, count):
        # A 2x2 die lattice draws only at its corners, where the radial
        # profile is zero: one solve gives the whole curve.
        cal = replace(datasets.calibration, grid_resolution=2, demand_weight=3.0)
        ds = replace(datasets, calibration=cal)
        spec = build_architecture("A2", "DSCH", ds)
        spec = replace(spec, stages=(replace(spec.stages[0], vr_count=count),))
        solved, solve = [], pdn_grid.solve_dc
        monkeypatch.setattr(pdn_grid, "solve_dc", lambda p: solved.append(p) or solve(p))
        curve = pol_current_curve(spec, ds)
        assert len(solved) == 1
        assert curve(0.0) == curve(3.0) == curve(-1.0)
        # Two or three VRs are over their rating at 1 kW, so evaluate stops
        # before the POL plane; the plane is solved on its own.
        problem = architecture._stage_bank(spec.stages[0], spec.die, ds).problem(
            1000.0, demand_weight=3.0)
        assert curve(3.0) == pytest.approx(solve(problem).vr_currents.tolist(), rel=1e-12)

    def test_reference_chain_has_no_curve(self, datasets):
        with pytest.raises(ValueError, match="no VR bank"):
            pol_current_curve(build_architecture("A0", None, datasets), datasets)


def _floats(tree):
    """Every float in a breakdown's asdict tree."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return [x for item in tree for x in _floats(item)]
    return [tree] if isinstance(tree, float) else []


class TestOneEvaluationPath:
    """Library evaluate stops where a cell stops: a cell's verdict is what
    evaluate returns or raises."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(power=st.floats(math.log(100.0), math.log(5000.0)).map(math.exp),
           sheet=st.floats(math.log(1e-4), math.log(1e-2)).map(math.exp),
           droop_scale=st.floats(0.0, 12.0), weight=st.floats(0.0, 20.0))
    def test_every_cell_is_what_evaluate_gives(self, datasets, power, sheet, droop_scale,
                                               weight):
        cal = replace(datasets.calibration, sheet_resistance_ohm_sq=sheet,
                      droop_share_resistance_scale=droop_scale, demand_weight=weight)
        ds = replace(datasets, calibration=cal)
        for arch in ARCHITECTURE_NAMES:
            for topo in ("DSCH", "DPMIH", "3LHD"):
                cell = one_cell(arch, topo, ds, total_power_w=power)
                spec = build_architecture(arch, topo, ds, total_power_w=power)
                try:
                    b = evaluate(spec, ds)
                except LoadExceedsRating as exc:
                    assert (cell.status, cell.reason) == (
                        "not_reported", "converter rating violated: " + str(exc))
                    continue
                except (PdnxError, OverflowError) as exc:
                    assert cell.status == "error"
                    assert cell.reason == str(exc) or isinstance(exc, OverflowError)
                    continue
                # evaluate returns only a breakdown of every stage.
                assert len(b.converter_losses_w) == max(len(spec.stages), 1)
                failed = [f.detail for f in b.feasibility
                          if f.check == "converter_rating" and f.status == "fail"]
                if not all(map(math.isfinite, _floats(asdict(b)))):
                    assert cell.status == "error"
                elif failed:
                    assert (cell.status, cell.reason) == (
                        "not_reported", "converter rating violated: " + failed[0])
                else:
                    assert cell.status == "ok"
                    assert asdict(cell.breakdown) == asdict(b)

    @pytest.mark.parametrize("resolution,total_loss_w", [(14, 331.8161719157615),
                                                         (26, 172.79880250062786)])
    def test_a2_dsch_keeps_its_over_rated_breakdown(self, resolution, total_loss_w):
        # bench/run.py's mesh_ladder reads these breakdowns (its
        # reference.json figures): A2's one bank is over its rating only on
        # its worst VR, so evaluate goes on to the board rail.
        ds = load_datasets({"calibration-default": {"grid_resolution": resolution}})
        b = evaluate(build_architecture("A2", "DSCH", ds), ds)
        assert list(b.converter_losses_w) == ["stage1_DSCH"]
        assert list(b.domain_currents_a) == ["1V", "48V"] and b.pcb_lateral_loss_w > 0
        assert [f.status for f in b.feasibility if f.check == "converter_rating"] == ["fail"]
        assert b.total_loss_w == pytest.approx(total_loss_w, rel=0, abs=1e-9)

    def test_a_plan_evaluated_through_its_last_bank_reaches_its_board_rail(self, datasets):
        # With no bga sites the board rail cannot be fed. A2+DSCH is over its
        # rating on its worst VR at resolution 14, so it reaches that rail
        # and is an error, as its in-rating neighbours are; a cell decided
        # on its mean stops before it.
        ds = load_datasets({"calibration-default": {"grid_resolution": 14}})
        levels = {**ds.levels, "bga": replace(ds.levels["bga"], pitch_um=1e6)}
        ds = replace(ds, levels=levels)
        cells = {(c.architecture, c.topology): c
                 for c in compare(["A1", "A2"], ["DSCH", "DPMIH"], ds).cells}
        for key in [("A1", "DSCH"), ("A2", "DSCH")]:
            assert cells[key].status == "error"
            assert cells[key].reason.startswith("bga has no connection sites")
        with pytest.raises(ZeroConnections, match="^bga has no connection sites"):
            evaluate(build_architecture("A2", "DSCH", ds), ds)
        assert cells["A2", "DPMIH"].status == "not_reported"


class TestPlaneMajorCompare:
    """compare runs every cell's stage loop together, plane-major, and gives
    each cell exactly what one_cell gives it alone."""

    BENCH_ARCHS = ["A0", "A1", "A2", "A3@12V", "A3@6V"]

    @staticmethod
    def _compare_counted(archs, topos, ds):
        """compare with an empty slot; returns its cells, the plane keys of
        its solves and the number of factorisations."""
        keys, factored = [], []
        solve, factor = pdn_grid.solve_dc, pdn_grid._factor_plane

        def factor_counted(key):
            assert pdn_grid._operator is None, "two plane factors alive"
            factored.append(key)
            return factor(key)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(pdn_grid, "_operator", None)
            m.setattr(pdn_grid, "_factor_plane", factor_counted)
            m.setattr(pdn_grid, "solve_dc",
                      lambda p: keys.append(pdn_grid.plane_key(p)) or solve(p))
            cells = compare(archs, topos, ds).cells
        return cells, keys, len(factored)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(archs=st.lists(st.sampled_from(ARCHITECTURE_NAMES), min_size=1, max_size=5,
                          unique=True),
           topos=st.lists(st.sampled_from(["DSCH", "DPMIH", "3LHD"]), min_size=1,
                          max_size=3, unique=True))
    def test_equals_per_cell_evaluation_one_factor_per_plane(self, datasets, archs, topos):
        cells, keys, factored = self._compare_counted(archs, topos, datasets)
        assert cells == [one_cell(a, t, datasets) for a in archs for t in topos]
        assert factored == len(set(keys))

    @pytest.mark.parametrize("archs,topos", [
        (BENCH_ARCHS, ["DSCH", "DPMIH"]),
        (["A3@6V", "A2", "A0", "A3@12V", "A1"], ["DPMIH", "DSCH"]),
        (["A3@12V", "A1", "A3@6V", "A0", "A2"], ["DSCH", "DPMIH"])])
    def test_benchmark_cells_make_five_factors_and_six_solves(self, datasets, archs, topos):
        # Every DPMIH bank's mean per-VR load is over its rating, so no DPMIH
        # plane is built. The DSCH cells solve 5 planes 6 times: A3@12V and
        # A3@6V each solve the POL plane they share.
        _, keys, factored = self._compare_counted(archs, topos, datasets)
        assert (factored, len(set(keys)), len(keys)) == (5, 5, 6)

    def test_one_solve_error_fails_only_its_cell(self, datasets, monkeypatch):
        args = (self.BENCH_ARCHS, ["DSCH", "DPMIH"], datasets)
        want = compare(*args).cells
        keys, solve = [], pdn_grid.solve_dc
        monkeypatch.setattr(pdn_grid, "solve_dc",
                            lambda p: keys.append(pdn_grid.plane_key(p)) or solve(p))
        evaluate(build_architecture("A2", "DSCH", datasets), datasets)
        [bad] = keys

        def failing(problem):
            if pdn_grid.plane_key(problem) == bad:
                raise SingularSystem("nodal solve residual 1e-03 exceeds 1e-10")
            return solve(problem)

        monkeypatch.setattr(pdn_grid, "solve_dc", failing)
        got = compare(*args).cells
        failed = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        assert [(got[i].architecture, got[i].topology) for i in failed] == [("A2", "DSCH")]
        assert got[failed[0]].status == "error"
        assert got[failed[0]].reason == "nodal solve residual 1e-03 exceeds 1e-10"


class TestCompareDeterminism:
    def test_repeat_runs_identical(self, datasets):
        from pdnx.reporting import dump_json, table_to_dict
        args = (["A0", "A1", "A2", "A3@12V", "A3@6V"], ["DSCH", "DPMIH"], datasets)
        first = dump_json(table_to_dict(compare(*args)))
        second = dump_json(table_to_dict(compare(*args)))
        assert first == second


def _violates(level, current_a, policy, die_area_mm2) -> bool:
    platform = level.area_ratio_to_die * die_area_mm2
    return required_connections(level, current_a, policy, platform).violates_cap


class TestMinDieArea:
    def test_reference_demand_needs_twelve_hundred_class_die(self, datasets):
        result = pdnx.min_die_area_for_current(
            1000.0, datasets.calibration.policy(), datasets)
        assert 1080.0 <= result.area_mm2 <= 1320.0
        assert result.density_a_mm2 == pytest.approx(1000.0 / result.area_mm2, rel=1e-12)
        assert result.binding_level == "c4"

    def test_zero_demand_hits_floor(self, datasets):
        result = pdnx.min_die_area_for_current(0.0, datasets.calibration.policy(), datasets)
        assert result.area_mm2 == MIN_DIE_AREA_FLOOR_MM2
        assert result.binding_level == "none"

    def test_tiny_caps_give_a_finite_area_that_meets_them(self, datasets):
        tiny = UtilizationPolicy(
            {name: 0.001 for name in datasets.stack_levels()},
            dict(datasets.calibration.ampacity_a),
        )
        result = pdnx.min_die_area_for_current(1000.0, tiny, datasets)
        assert 10000.0 < result.area_mm2 < math.inf
        for name in datasets.stack_levels():
            assert not _violates(datasets.levels[name], 1000.0, tiny, result.area_mm2)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(geometry=st.lists(st.tuples(st.floats(1.0, 1000.0), st.floats(0.05, 20.0),
                                       st.floats(0.01, 1.0), st.floats(1e-4, 10.0)),
                             min_size=4, max_size=4),
           demand=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
           target=st.floats(1.0, 1e4))
    def test_area_is_the_smallest_that_passes(self, datasets, geometry, demand, target):
        # Checked against required_connections, not against the closed form.
        names = datasets.stack_levels()
        levels = {name: replace(datasets.levels[name], pitch_um=pitch,
                                cross_area_um2=0.5 * pitch ** 2, area_ratio_to_die=ratio)
                  for name, (pitch, ratio, _, _) in zip(names, geometry)}
        cal = replace(datasets.calibration,
                      max_usage_fraction={n: cap for n, (_, _, cap, _) in zip(names, geometry)},
                      ampacity_a={n: amp for n, (_, _, _, amp) in zip(names, geometry)})
        ds = replace(datasets, levels=levels, calibration=cal)
        policy = cal.policy()
        result = pdnx.min_die_area_for_current(demand, policy, ds)
        for name in names:
            assert not _violates(levels[name], demand, policy, result.area_mm2), name
        if result.binding_level == "none":
            assert result.area_mm2 == MIN_DIE_AREA_FLOOR_MM2
        else:
            assert _violates(levels[result.binding_level], demand, policy,
                             result.area_mm2 * (1 - 1e-9))

        fitted, residual = calibrate_min_die_area(ds, target)
        refit = replace(ds, calibration=fitted)
        area = pdnx.min_die_area_for_current(1000.0, fitted.policy(), refit).area_mm2
        assert residual == abs(area - target) / target

    def test_monotone_in_demand(self, datasets):
        policy = datasets.calibration.policy()
        areas = [pdnx.min_die_area_for_current(d, policy, datasets).area_mm2
                 for d in (250.0, 500.0, 1000.0)]
        assert areas[0] <= areas[1] <= areas[2]


class TestUtilizationReport:
    def test_a1_quartet(self, datasets):
        spec = build_architecture("A1", "DSCH", datasets)
        entries = {e.level: e for e in utilization_report(spec, datasets)}
        assert entries["bga"].utilization_fraction <= 0.02
        assert entries["c4"].utilization_fraction <= 0.04
        assert entries["tsv"].utilization_fraction <= 0.12
        assert entries["adv_pad"].utilization_fraction < 0.20
        assert all(e.status == "pass" for e in entries.values())

    def test_currents_are_nameplate(self, datasets):
        spec = build_architecture("A1", "DSCH", datasets)
        entries = {e.level: e for e in utilization_report(spec, datasets)}
        assert entries["bga"].current_a == pytest.approx(1000.0 / 48.0, rel=1e-12)
        assert entries["tsv"].current_a == pytest.approx(1000.0, rel=1e-12)

    def test_a3_intermediate_domain(self, datasets):
        spec = build_architecture("A3@12V", "DSCH", datasets)
        entries = {e.level: e for e in utilization_report(spec, datasets)}
        assert entries["tsv"].domain_voltage_v == 12.0
        assert entries["tsv"].current_a == pytest.approx(1000.0 / 12.0, rel=1e-12)


class TestAssumptionsRecorded:
    def test_overrides_and_retargeting_logged(self, datasets):
        b = evaluate(build_architecture("A3@12V", "DSCH", datasets), datasets)
        text = " ".join(b.assumptions)
        assert "datasheet site count" in text
        assert "scaled to v_out=12" in text

    @staticmethod
    def _reused(b):
        return [line for line in b.assumptions if "peak-point calibration" in line]

    def test_only_a_retargeted_stage_reuses_its_datasheet_calibration(self, datasets):
        b = evaluate(build_architecture("A1", "DSCH", datasets, pol_voltage_v=0.8), datasets)
        assert self._reused(b) == ["stage1_DSCH-48to0.8: reuses the 48V-to-1V peak-point "
                                   "calibration scaled to v_out=0.8 V"]
        assert self._reused(evaluate(build_architecture("A1", "DSCH", datasets), datasets)) == []
        # A DSCH rated 48 V to 0.8 V is not retargeted at a 0.8 V POL.
        topologies = {**datasets.topologies,
                      "DSCH": replace(datasets.topologies["DSCH"], v_out_v=0.8)}
        ds = replace(datasets, topologies=topologies)
        spec = build_architecture("A1", "DSCH", ds, pol_voltage_v=0.8)
        assert spec.stages[0].topology is topologies["DSCH"]
        assert self._reused(evaluate(spec, ds)) == []
        # Its A3 POL stage is, from the 0.8 V datasheet point (POL side first).
        b = evaluate(build_architecture("A3@12V", "DSCH", ds, total_power_w=300.0,
                                        pol_voltage_v=0.8), ds)
        assert self._reused(b)[0] == ("stage2_DSCH-12to0.8: reuses the 48V-to-0.8V "
                                      "peak-point calibration scaled to v_out=0.8 V")
