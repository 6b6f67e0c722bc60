"""Command-line front end: exit codes, file outputs, and reproducibility."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdnx
from pdnx.architecture import ARCHITECTURE_NAMES
from pdnx.calibrate import TARGETS
from pdnx.cli import SWEEP_PARAMETERS, _parse_values, main
from pdnx.datasets import load_raw_dataset
from pdnx.errors import ConfigError


def run_cli(*argv) -> int:
    return main(list(argv))


def write_config(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


def csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# Columns of a comparison row that only an ok cell fills.
LOSS_COLUMNS = ("total_loss_w", "total_loss_pct", "horizontal_loss_w", "converter_loss_w",
                "vertical_loss_w", "pcb_lateral_loss_w", "feasibility",
                "vr_current_min_a", "vr_current_max_a")


class TestDatasetsCommand:
    def test_lists_builtins(self, capsys):
        assert run_cli("datasets") == 0
        out = capsys.readouterr().out
        for name in ("table1", "table2", "calibration-default"):
            assert name in out
        assert "no user overrides" in out

    def test_flags_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "datasets": {"calibration-default": {"demand_weight": 1.0}}})
        assert run_cli("datasets", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "calibration-default.demand_weight" in out

    def test_unknown_dataset_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"datasets": {"mystery": {}}})
        assert run_cli("datasets", "--config", cfg) == 2
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize("arch", ["A0", "A1"])
    def test_unknown_die_attach_exits_2(self, tmp_path, capsys, command, arch):
        cfg = write_config(tmp_path, {
            "architectures": arch,
            "datasets": {"calibration-default": {"die_attach_level": "glue"}}})
        assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "die_attach_level 'glue'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestEvaluateCommand:
    def test_default_a1_dsch(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("evaluate", "--out", str(out)) == 0
        doc = json.loads((out / "breakdown.json").read_text())
        assert doc["architecture"] == "A1"
        assert 15.0 <= doc["total_loss_pct"] <= 25.0
        assert (out / "breakdown.csv").exists()
        assert (out / "breakdown.txt").exists()

    def test_a0_exceeds_forty_percent_nonstrict(self, tmp_path):
        cfg = write_config(tmp_path, {"architectures": "A0"})
        out = tmp_path / "out"
        assert run_cli("evaluate", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads((out / "breakdown.json").read_text())
        assert doc["total_loss_pct"] > 40.0

    def test_a0_strict_fails_its_check_exit_3(self, tmp_path):
        # An ok cell whose breakdown fails a feasibility check is reported,
        # and --strict makes that exit 3.
        cfg = write_config(tmp_path, {"architectures": "A0"})
        out = tmp_path / "out"
        assert run_cli("evaluate", "--config", cfg, "--out", str(out), "--strict") == 3
        doc = json.loads((out / "breakdown.json").read_text())
        assert doc["total_loss_pct"] > 40.0
        assert any(check["status"] == "fail" for check in doc["feasibility"])

    def test_a2_3lhd_strict_not_reported_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, {"architectures": "A2", "topologies": "3LHD"})
        out = tmp_path / "out"
        assert run_cli("evaluate", "--config", cfg, "--out", str(out), "--strict") == 3
        doc = json.loads((out / "breakdown.json").read_text())
        assert doc["status"] == "not_reported"
        assert "total_loss_pct" not in doc

    def test_unknown_architecture_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"architectures": "A9"})
        assert run_cli("evaluate", "--config", cfg, "--out", str(tmp_path / "x")) == 2

    def test_pol_voltage_at_the_board_rail_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pol_voltage_v": 48})
        assert run_cli("evaluate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "config error: pol_voltage_v 48 V is not below the 48 V board rail" \
            in capsys.readouterr().err

    def test_missing_operating_point_not_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "architectures": "A3@6V", "topologies": "DSCH",
            "datasets": {"calibration-default": {"sheet_resistance_ohm_sq": 0.06}}})
        out = tmp_path / "out"
        assert run_cli("evaluate", "--config", cfg, "--out", str(out)) == 4
        assert "A3@6V + DSCH: error (no intermediate-plane operating point" \
            in capsys.readouterr().out
        doc = json.loads((out / "breakdown.json").read_text())
        assert doc["status"] == "error"

    def test_oversize_lattice_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "datasets": {"calibration-default": {"grid_resolution": 5000}}})
        assert run_cli("evaluate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "node limit" in capsys.readouterr().err

    def test_format_selection(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("evaluate", "--out", str(out), "--format", "json") == 0
        assert (out / "breakdown.json").exists()
        assert not (out / "breakdown.csv").exists()

    def test_unknown_format_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("evaluate", "--out", str(out), "--format", "json,xml") == 2
        assert "unknown format(s) xml" in capsys.readouterr().err
        assert not out.exists()

    def test_droop_overflow_is_an_error_cell_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "datasets": {"calibration-default": {"droop_share_resistance_scale": 20}}})
        out = tmp_path / "out"
        assert run_cli("evaluate", "--config", cfg, "--out", str(out)) == 4
        assert "A1 + DSCH: error (stage1_DSCH: its" in capsys.readouterr().out
        assert json.loads((out / "breakdown.json").read_text())["status"] == "error"


class TestCompareCommand:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "architectures": ["A0", "A1", "A2", "A3@12V", "A3@6V"],
            "topologies": ["DSCH", "DPMIH"],
        })
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("compare", "--config", cfg, "--out", str(out1)) == 0
        assert run_cli("compare", "--config", cfg, "--out", str(out2)) == 0
        for name in ("comparison.json", "comparison.csv", "comparison.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_ten_cells(self, tmp_path):
        cfg = write_config(tmp_path, {
            "architectures": ["A0", "A1", "A2", "A3@12V", "A3@6V"],
            "topologies": ["DSCH", "DPMIH"],
        })
        out = tmp_path / "out"
        assert run_cli("compare", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert len(doc["cells"]) == 10
        by_key = {(c["architecture"], c["topology"]): c for c in doc["cells"]}
        assert by_key[("A1", "DSCH")]["status"] == "ok"
        assert by_key[("A2", "DPMIH")]["status"] == "not_reported"

    def test_strict_with_a_not_reported_cell_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, {"architectures": "A2", "topologies": "3LHD"})
        out = tmp_path / "out"
        assert run_cli("compare", "--config", cfg, "--out", str(out), "--strict") == 3
        [cell] = json.loads((out / "comparison.json").read_text())["cells"]
        assert cell["status"] == "not_reported"

    def test_droop_overflow_keeps_the_table_exit_0(self, tmp_path):
        cfg = write_config(tmp_path, {
            "architectures": ["A0", "A1", "A2", "A3@12V", "A3@6V"],
            "topologies": ["DSCH", "DPMIH"],
            "datasets": {"calibration-default": {"droop_share_resistance_scale": 20}}})
        out = tmp_path / "out"
        assert run_cli("compare", "--config", cfg, "--out", str(out)) == 0
        rows = csv_rows(out / "comparison.csv")
        # Every DPMIH bank's mean per-VR load is over its rating at 1 kW, so
        # its droop is never checked.
        assert [r["status"] for r in rows] == ["ok"] * 2 + ["error", "not_reported"] * 4


class TestSweepCommand:
    def test_sheet_resistance_linearity(self, tmp_path):
        # With droop disabled the sharing is voltage-pinned and the plane
        # loss is exactly linear in its sheet resistance. At 500 W every
        # pinned VR stays within its rating, so every row carries a figure.
        cfg = write_config(tmp_path, {
            "total_power_w": 500,
            "datasets": {"calibration-default": {"droop_share_resistance_scale": 0.0}}})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out),
                       "--param", "sheet_resistance", "--values", "0.00025,0.0005,0.001") == 0
        rows = (out / "sweep_sheet_resistance.csv").read_text().strip().split("\n")
        assert len(rows) == 4
        assert [r.split(",")[3] for r in rows[1:]] == ["ok"] * 3
        h = [float(r.split(",")[6]) for r in rows[1:]]
        assert h[1] == pytest.approx(2.0 * h[0], rel=1e-12)
        assert h[2] == pytest.approx(2.0 * h[1], rel=1e-12)

    def test_die_area_sweep_finds_reference_threshold(self, tmp_path):
        cfg = write_config(tmp_path, {"architectures": "A0"})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out),
                       "--param", "die_area", "--values", "500:1500:100") == 0
        rows = (out / "sweep_die_area.csv").read_text().strip().split("\n")[1:]
        passing = [float(r.split(",")[0]) for r in rows if r.split(",")[10] == "pass"]
        assert passing
        assert 1080.0 <= min(passing) <= 1320.0

    def test_empty_range_header_only(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--out", str(out), "--param", "demand_weight",
                       "--values", "") == 0
        rows = (out / "sweep_demand_weight.csv").read_text().strip().split("\n")
        assert len(rows) == 1

    def test_missing_operating_point_is_error_row(self, tmp_path):
        cfg = write_config(tmp_path, {"architectures": "A3@6V", "topologies": "DSCH"})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out),
                       "--param", "sheet_resistance", "--values", "0.0005,0.5") == 0
        rows = (out / "sweep_sheet_resistance.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[3] for r in rows] == ["ok", "error"]
        assert "no intermediate-plane operating point" in rows[1]

    def test_die_without_connection_sites_is_not_ok_row(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--out", str(out), "--param", "die_area",
                       "--values", "1e-9") == 0
        [row] = csv_rows(out / "sweep_die_area.csv")
        assert row["status"] != "ok"

    def test_reference_level_without_connection_sites_is_error_row(self, tmp_path):
        # It used to be an ok row of 412.04 W, the vertical loss charged at
        # one connection per level on a die with room for none.
        cfg = write_config(tmp_path, {"architectures": "A0"})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--param", "die_area",
                       "--values", "1e-9") == 0
        [row] = csv_rows(out / "sweep_die_area.csv")
        assert row["status"] == "error" and row["total_loss_w"] == ""
        assert "bga has no connection sites on a 1e-09 mm2 die" in row["reason"]

    @pytest.mark.parametrize("param,value,message", [
        pytest.param(param, value, message, id=f"{param}-{value}")
        for param, value, message in [
            ("total_power", "0", "must be > 0"), ("sheet_resistance", "-1", "must be > 0"),
            ("sheet_resistance", "nan", "must be > 0"), ("die_area", "inf", "must be > 0"),
            ("sheet_resistance", "1e-310", "node conductance, 4/R, is not finite"),
            ("pcb_lateral_resistance", "-1", "must be >= 0")]])
    def test_invalid_value_is_error_row(self, tmp_path, param, value, message):
        out = tmp_path / "out"
        assert run_cli("sweep", "--out", str(out), "--param", param, "--values", value) == 0
        rows = (out / f"sweep_{param}.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 1
        assert rows[0].split(",")[3] == "error"
        assert message in rows[0]

    def test_oversize_lattice_exit_2(self, tmp_path, capsys):
        # Only a ValueError raised while a sample's plan is built is its
        # error row. The lattice is sized after that, from the datasets, so
        # the sweep exits 2 as evaluate and compare do, and writes no CSV.
        cfg = write_config(tmp_path, {
            "datasets": {"calibration-default": {"grid_resolution": 5000}}})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out),
                       "--param", "demand_weight", "--values", "1") == 2
        assert "node limit" in capsys.readouterr().err
        assert not out.exists()

    def test_single_point_range(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--out", str(out), "--param", "demand_weight",
                       "--values", "2:2") == 0
        rows = (out / "sweep_demand_weight.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[:4] for r in rows] == [["2.0", "A1", "DSCH", "ok"]]

    def test_descending_range_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("sweep", "--out", str(out), "--param", "demand_weight",
                       "--values", "3:1") == 2
        assert "below start" in capsys.readouterr().err
        assert not (out / "sweep_demand_weight.csv").exists()

    def test_unknown_parameter_exit_2(self, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path), "--param", "magic",
                       "--values", "1,2") == 2

    def test_over_rated_cell_is_not_reported(self, tmp_path):
        # A1 + DPMIH runs 125 A per VR on a 100 A part at every demand weight.
        cfg = write_config(tmp_path, {"architectures": "A1", "topologies": "DPMIH"})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out),
                       "--param", "demand_weight", "--values", "1,4") == 0
        assert run_cli("compare", "--config", cfg, "--out", str(out)) == 0
        rows = csv_rows(out / "sweep_demand_weight.csv")
        reason = json.loads((out / "comparison.json").read_text())["cells"][0]["reason"]
        assert reason.startswith("converter rating violated: ")
        assert len(rows) == 2
        for row in rows:
            assert row["status"] == "not_reported"
            assert row["reason"] == reason
            assert all(row[col] == "" for col in LOSS_COLUMNS)


class TestSweepBatch:
    """A sweep evaluates its points in one plane-major batch."""

    def test_sink_only_sweep_factors_each_plane_once(self, tmp_path, monkeypatch, capsys):
        # A total-power sweep changes only the sinks on both A3 planes: 41
        # points build the POL and the intermediate plane operator once each,
        # and every point is the cell compare gives it alone. Both
        # planes split by their mirror symmetry, and both demands are
        # symmetric up to rounding: each plane factorises its symmetric
        # sector only.
        from pdnx import pdn_grid, reporting
        from pdnx.architecture import compare

        planes, factored, cells = [], [], []
        factor, factor_block = pdn_grid._factor_plane, pdn_grid._factor_block
        to_row = reporting.cell_to_csv_row
        monkeypatch.setattr(pdn_grid, "_operator", None)
        monkeypatch.setattr(pdn_grid, "_factor_plane",
                            lambda key: planes.append(key) or factor(key))
        monkeypatch.setattr(pdn_grid, "_factor_block",
                            lambda *a: factored.append(a[-1].lo.size) or factor_block(*a))
        monkeypatch.setattr(reporting, "cell_to_csv_row", lambda c: cells.append(c) or to_row(c))
        cfg = write_config(tmp_path, {"architectures": "A3@12V", "topologies": "DSCH"})
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path),
                       "--param", "total_power", "--values", "400:1000:15") == 0
        capsys.readouterr()
        assert len(cells) == 41
        assert len(planes) == 2
        assert factored == [2016, 5565]
        monkeypatch.setattr(pdn_grid, "_factor_plane", factor)
        monkeypatch.setattr(pdn_grid, "_factor_block", factor_block)
        datasets = pdnx.load_datasets()
        assert cells == [cell for k in range(41) for cell in compare(
            ["A3@12V"], ["DSCH"], datasets, total_power_w=400.0 + 15 * k).cells]

    def test_sweep_across_the_rating_builds_no_plane_above_it(self, tmp_path, monkeypatch,
                                                              capsys):
        # A1's 8 DPMIH VRs of 100 A carry 800 A at 1 V. Up to 800 W each
        # point builds its plane, and at 800 W its worst VR is at the
        # rating up to rounding, so within it; above it the mean per-VR load
        # decides, and no plane is built.
        from pdnx import pdn_grid, reporting
        from pdnx.architecture import compare

        built, solved, cells = [], [], []
        build, solve, to_row = pdn_grid.build_problem, pdn_grid.solve_dc, reporting.cell_to_csv_row
        monkeypatch.setattr(pdn_grid, "build_problem",
                            lambda *a, **k: built.append(a[2]) or build(*a, **k))
        monkeypatch.setattr(pdn_grid, "solve_dc", lambda p: solved.append(1) or solve(p))
        monkeypatch.setattr(reporting, "cell_to_csv_row", lambda c: cells.append(c) or to_row(c))
        cfg = write_config(tmp_path, {"architectures": "A1", "topologies": "DPMIH"})
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path),
                       "--param", "total_power", "--values", "400:1000:100") == 0
        capsys.readouterr()
        assert built == [400.0, 500.0, 600.0, 700.0, 800.0]
        assert len(solved) == 5
        assert [c.status for c in cells] == ["ok"] * 5 + ["not_reported"] * 2
        # At 800 W the even share is the rating itself, up to rounding.
        assert any(f.detail.endswith("per-VR load up to 100.0 A within 100 A")
                   for f in cells[4].breakdown.feasibility)
        assert all("mean per-VR load " in c.reason for c in cells[5:])
        datasets = pdnx.load_datasets()
        assert cells == [cell for k in range(7) for cell in compare(
            ["A1"], ["DPMIH"], datasets, total_power_w=400.0 + 100 * k).cells]

    def test_bad_value_is_an_error_row_among_good_ones(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("sweep", "--out", str(out), "--param", "demand_weight",
                       "--values", "0.5,-3,1.5") == 0
        capsys.readouterr()
        rows = csv_rows(out / "sweep_demand_weight.csv")
        assert [row["status"] for row in rows] == ["ok", "error", "ok"]


class TestOneVerdict:
    """evaluate, compare and sweep give one cell the same status and reason."""

    @pytest.mark.parametrize("arch,topo,sheet,status", [
        ("A1", "DSCH", None, "ok"),
        ("A1", "DPMIH", None, "not_reported"),
        ("A3@6V", "DSCH", 0.06, "error"),
        # The over-rated POL bank fixes the verdict; the 6 V plane upstream
        # of it, which has no operating point at this sheet, is not evaluated.
        ("A3@6V", "DPMIH", 0.06, "not_reported"),
    ])
    def test_commands_agree(self, tmp_path, capsys, arch, topo, sheet, status):
        doc = {"architectures": arch, "topologies": topo}
        if sheet is not None:
            doc["datasets"] = {"calibration-default": {"sheet_resistance_ohm_sq": sheet}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        # A model error is a numerical failure for evaluate; compare and
        # sweep record it in their cell and row.
        assert run_cli("evaluate", "--config", cfg, "--out", str(out)) == \
            (4 if status == "error" else 0)
        assert run_cli("compare", "--config", cfg, "--out", str(out)) == 0
        assert run_cli("sweep", "--config", cfg, "--out", str(out),
                       "--param", "total_power", "--values", "1000") == 0
        capsys.readouterr()

        evaluated = json.loads((out / "breakdown.json").read_text())
        [compared] = json.loads((out / "comparison.json").read_text())["cells"]
        [compared_row] = csv_rows(out / "comparison.csv")
        [swept] = csv_rows(out / "sweep_total_power.csv")
        assert compared["status"] == compared_row["status"] == swept["status"] == status
        assert compared["reason"] == compared_row["reason"] == swept["reason"]
        if (arch, topo) == ("A3@6V", "DPMIH"):
            assert compared["reason"] == (
                "converter rating violated: stage2_DPMIH-6to1: mean per-VR load 142.9 A "
                "(1000 A over 7 VRs) exceeds the 100 A rating of DPMIH-6to1")
        if status == "ok":
            assert compared["reason"] == ""
            total = compared["breakdown"]["total_loss_w"]
            assert evaluated["total_loss_w"] == total
            assert float(compared_row["total_loss_w"]) == float(swept["total_loss_w"]) == total
        else:
            # A cell that is not ok writes the comparison cell as its breakdown.
            assert evaluated == compared
            [evaluated_row] = csv_rows(out / "breakdown.csv")
            assert evaluated_row == compared_row
            assert all(swept[col] == "" for col in LOSS_COLUMNS)


COMMANDS = ("datasets", "evaluate", "compare", "sweep", "calibrate", "feasibility")
# Run configs whose values no cell can take: each command refuses them, and
# a sweep writes no error row per sample.
REFUSED_RUNS = [
    ({"pol_voltage_v": 60}, "pol_voltage_v 60 V is not below the 48 V board rail"),
    ({"architectures": "A3@12V", "pol_voltage_v": 20},
     "pol_voltage_v 20 V is not below the 12 V intermediate rail of A3@12V"),
    ({"total_power_w": math.nan, "die_area_mm2": math.inf},
     "field 'total_power_w': expected a positive finite number, got nan"),
    ({"topologies": ["DSCH", "4LHD"]}, "unknown converter topology '4LHD'"),
]


def command_argv(command: str, cfg: str, out: Path) -> list[str]:
    """A complete invocation of command on the run config cfg."""
    argv = [command, "--config", cfg]
    if command != "datasets":
        argv += ["--out", str(out)]
    if command == "sweep":
        argv += ["--param", "total_power", "--values", "1000"]
    return argv


class TestRunValues:
    """total_power_w, pol_voltage_v and die_area_mm2 are checked when the run
    config is read: a bad one exits 2 naming the field on every command,
    before any cell is built and with no file written."""

    @staticmethod
    def _refused(tmp_path, capsys, doc) -> str:
        out = tmp_path / "out"
        cfg = write_config(tmp_path, doc)
        errors = []
        for command in COMMANDS:
            assert run_cli(*command_argv(command, cfg, out)) == 2, command
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert len(set(errors)) == 1
        return errors[0]

    @pytest.mark.parametrize("key", ["total_power_w", "pol_voltage_v", "die_area_mm2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0, -1])
    def test_out_of_range_exit_2(self, tmp_path, capsys, key, value):
        err = self._refused(tmp_path, capsys, {key: value})
        assert err == (f"config error: field '{key}': expected a positive finite number, "
                       f"got {value!r}\n")

    @pytest.mark.parametrize("doc, message", [
        *REFUSED_RUNS,
        ({"architectures": ["A1", "A3@6V"], "pol_voltage_v": 8},
         "pol_voltage_v 8 V is not below the 6 V intermediate rail of A3@6V"),
        ({"architectures": "A0", "pol_voltage_v": 48},
         "pol_voltage_v 48 V is not below the 48 V board rail"),
        ({"architectures": "A3@12V", "pol_voltage_v": 11.99999},
         "pol_voltage_v 11.99999 V is labelled as the 12 V intermediate rail of A3@12V"),
        ({"architectures": "A1", "pol_voltage_v": 47.99999},
         "pol_voltage_v 47.99999 V is labelled as the 48 V board rail"),
    ])
    def test_refused_run_exit_2(self, tmp_path, capsys, doc, message):
        # A POL voltage is named with the plan and the rail it is not below,
        # not by a converter such as DSCH-12to20 that would step its rail up.
        # One that prints as a rail's label, which keys that rail's figures
        # in every report, is named with its exact value and that rail.
        assert self._refused(tmp_path, capsys, doc) == f"config error: {message}\n"

    def test_a_pol_voltage_below_every_rail_is_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"architectures": ["A0", "A3@6V"], "pol_voltage_v": 5.9})
        assert run_cli("datasets", "--config", cfg) == 0


class TestSweepRanges:
    @pytest.mark.parametrize("text,count,last", [("100:2000:0.1", 19001, 2000.0),
                                                 ("1e6:1001000:0.1", 10001, 1001000.0)])
    def test_endpoint_is_exact(self, text, count, last):
        values = _parse_values(text)
        assert len(values) == count
        assert values[-1] == last

    def test_samples_are_start_plus_k_step(self):
        values = _parse_values("100:2000:0.1")
        assert values[12345] == pytest.approx(100.0 + 12345 * 0.1, rel=1e-15)
        assert values[3] == 100.3

    def test_small_valued_range_is_not_rounded_away(self):
        assert _parse_values("1e-13:5e-13:1e-13") == pytest.approx(
            [1e-13, 2e-13, 3e-13, 4e-13, 5e-13], rel=1e-12)

    def test_two_part_range_has_eleven_samples(self):
        assert _parse_values("0:1") == pytest.approx([k / 10 for k in range(11)], abs=1e-12)

    def test_equal_bounds_give_one_sample(self):
        assert _parse_values("2.5:2.5") == [2.5]
        assert _parse_values("2.5:2.5:0.1") == [2.5]

    def test_range_limit_is_checked_before_the_list_is_built(self, monkeypatch):
        # 100,001 samples are one too many; a step of 1e-308 over 1e308
        # overflows the sample count itself.
        for text in ("0:100000:1", "0:1e308:1e-308"):
            with pytest.raises(ConfigError, match="100000 sample limit"):
                _parse_values(text)
        assert len(_parse_values("0:99999:1")) == 100_000
        from pdnx import cli
        monkeypatch.setattr(cli, "_MAX_SWEEP_SAMPLES", 10)
        monkeypatch.setattr(cli, "round", lambda *a: pytest.fail("the list was built"),
                            raising=False)
        with pytest.raises(ConfigError, match=r"0:1:1e-12.* 1e\+12 samples.* 10 sample limit"):
            _parse_values("0:1:1e-12")
        with pytest.raises(ConfigError):
            _parse_values("0:1:0.1")    # 11 samples

    def test_oversized_range_is_exit_2(self, tmp_path, monkeypatch, capsys):
        from pdnx import cli
        monkeypatch.setattr(cli, "_MAX_SWEEP_SAMPLES", 10)
        assert run_cli("sweep", "--out", str(tmp_path), "--param", "total_power",
                       "--values", "400:1000:50") == 2
        assert "13 samples, above the 10 sample limit" in capsys.readouterr().err
        assert not (tmp_path / "sweep_total_power.csv").exists()

    @pytest.mark.parametrize("text", ["3:1", "3:1:0.5", "0:1:0", "0:1:-1", "0:inf:1", "1:2:3:4"])
    def test_bad_range_is_config_error(self, text):
        with pytest.raises(ConfigError):
            _parse_values(text)


class TestCalibrateCommand:
    def test_zero_targets_identity(self, tmp_path):
        from pdnx.datasets import load_datasets
        out = tmp_path / "out"
        assert run_cli("calibrate", "--out", str(out)) == 0
        doc = json.loads((out / "calibration-user.json").read_text())
        active = load_datasets().calibration
        assert doc["sheet_resistance_ohm_sq"] == active.sheet_resistance_ohm_sq
        assert doc["residuals"] == {}

    def test_a0_target_back_solves_board_rail(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("calibrate", "--out", str(out),
                       "--target", "a0_loss_pct=40") == 0
        doc = json.loads((out / "calibration-user.json").read_text())
        # 40% of 1 kW minus the conversion loss leaves a 0.3 mOhm-class rail
        assert 1e-4 <= doc["pcb_lateral_resistance_ohm"] <= 5e-4
        assert doc["residuals"]["a0_loss_pct"] < 0.01

    def test_a0_target_below_converter_loss_exit_4(self, tmp_path, capsys):
        # At zero board resistance A0 still loses 11 % in its converter,
        # so 5 % would need a negative rail resistance.
        out = tmp_path / "out"
        assert run_cli("calibrate", "--out", str(out),
                       "--target", "a0_loss_pct=5") == 4
        assert "unreachable" in capsys.readouterr().err
        assert not out.exists()

    def test_a0_target_with_an_infinite_residual_exit_4(self, tmp_path, capsys):
        # The fit's loss overflows, and an infinite residual is no fit: no
        # calibration is written, and so no Infinity in its JSON.
        out = tmp_path / "out"
        assert run_cli("calibrate", "--out", str(out), "--target", "a0_loss_pct=1e308") == 4
        assert capsys.readouterr().err == (
            "numerical failure: target a0_loss_pct unreachable: the fit's relative "
            "residual is inf\n")
        assert not out.exists()

    def test_non_finite_plane_solve_exit_4(self, tmp_path, capsys, recwarn):
        # A sheet resistance of 3e-308 gives the A1 plane an edge
        # conductance of 3.3e307 and a node's diagonal, four of them, of
        # 1.3e308, both finite, so it loads. But the row norm ||A||_inf sums
        # eight and is not finite, so the spread fit's solve is refused.
        cfg = write_config(tmp_path, {"datasets": {"calibration-default": {
            "sheet_resistance_ohm_sq": 3e-308}}})
        out = tmp_path / "out"
        assert run_cli("calibrate", "--config", cfg, "--out", str(out),
                       "--target", "a1_spread=16:27") == 4
        err = capsys.readouterr().err
        assert "not finite" in err
        # numpy does not warn of the overflow as well.
        assert "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("sheet,ratio", [(1e-20, "4.5e+18"), (5e-308, "8.9e+305")])
    def test_numerically_singular_plane_exit_4(self, tmp_path, capsys, sheet, ratio):
        # The A1 plane's block is positive definite, and its conductances
        # are finite, but its sheet conductance is so far above its weakest
        # VR branch conductance (22.4 S) that the rounded block has lost the
        # branches. Its band Cholesky breaks down at its last step; the
        # message says why, naming the ratio and no lattice node.
        cfg = write_config(tmp_path, {"datasets": {"calibration-default": {
            "sheet_resistance_ohm_sq": sheet}}})
        out = tmp_path / "out"
        assert run_cli("calibrate", "--config", cfg, "--out", str(out),
                       "--target", "a1_spread=16:27") == 4
        err = capsys.readouterr().err
        assert ("numerical failure: sector block is numerically singular (not positive "
                "definite at step 1176 of 1176 of its band Cholesky); the sheet conductance "
                f"is {ratio} times the smallest VR branch conductance") in err
        assert "pivot" not in err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["a0_loss_pct=-5", "a0_loss_pct=0", "a0_loss_pct=nan",
                                        "a0_loss_pct=inf", "min_die_area=0",
                                        "min_die_area=-1200", "min_die_area=nan"])
    def test_non_positive_or_non_finite_target_exit_2(self, tmp_path, target):
        assert run_cli("calibrate", "--out", str(tmp_path / "out"),
                       "--target", target) == 2

    @pytest.mark.parametrize("target", [
        "a1_spread=nan:nan", "a1_spread=-5:-1", "a1_spread=27:16", "a1_spread=16:inf",
        "a2_spread=0:93", "utilizations=c4:0", "utilizations=bga:0.01,c4:-1",
        "utilizations=c4:nan", "utilizations=c4:1.5", "utilizations=foo:0.5",
        "a1_spread=16:27 a1_spread=40:41", "utilizations=c4:0.02,c4:0.03",
        "a0_loss_pct=abc", "a1_spread=16", "a1_spread=16:27:30", "utilizations=c4"])
    def test_bad_spread_or_utilization_target_exit_2(self, tmp_path, capsys, target):
        # A space separates the targets of a case that gives more than one.
        out = tmp_path / "out"
        flags = [arg for pair in target.split() for arg in ("--target", pair)]
        assert run_cli("calibrate", "--out", str(out), *flags) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"target {target.partition('=')[0]}" in err
        assert "could not convert" not in err
        assert not out.exists()

    def test_target_without_a_value_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("calibrate", "--out", str(out), "--target", "a1_spread") == 2
        assert capsys.readouterr().err == ("config error: bad target 'a1_spread' "
                                           "(want NAME=VALUE)\n")
        assert not out.exists()

    def test_a_model_error_outside_any_cell_exit_4(self, tmp_path, capsys):
        # The spread fit places A1's periphery bank itself, outside any cell:
        # a margin too narrow for its rings ends the run with no file.
        cfg = write_config(tmp_path, {"datasets": {"calibration-default": {
            "interposer_margin_mm": 1}}})
        out = tmp_path / "out"
        assert run_cli("calibrate", "--config", cfg, "--out", str(out),
                       "--target", "a1_spread=16:27") == 4
        assert capsys.readouterr().err.startswith(
            "error: 2 periphery ring(s) need 5.38 mm of margin")
        assert not out.exists()

    def test_unknown_target_exit_2(self, tmp_path, capsys):
        assert run_cli("calibrate", "--out", str(tmp_path),
                       "--target", "coolness=11") == 2
        known = capsys.readouterr().err.partition("(known: ")[2].rstrip().removesuffix(")")
        assert known.split(", ") == list(TARGETS)

    @pytest.mark.parametrize("command", ["calibrate", "evaluate"])
    def test_sheet_resistance_whose_conductance_overflows_exit_2(self, tmp_path, capsys,
                                                                 command):
        # 1 / 1e-310 is not finite: the override is refused at load, naming
        # the field, before any plane is built.
        cfg = write_config(tmp_path, {"datasets": {"calibration-default": {
            "sheet_resistance_ohm_sq": 1e-310}}})
        out = tmp_path / "out"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert ("config error: calibration-default: sheet_resistance_ohm_sq 1e-310 gives a "
                "plane whose node conductance, 4/R, is not finite") in err
        assert not out.exists()

    def test_sheet_resistance_whose_diagonal_overflows_exit_2(self, tmp_path, capsys):
        # 1 / 1e-308 is finite, but a node's diagonal, up to four edge
        # conductances, is not: the spread fit's plane used to be built and
        # its solve to end in exit 4.
        cfg = write_config(tmp_path, {"datasets": {"calibration-default": {
            "sheet_resistance_ohm_sq": 1e-308}}})
        out = tmp_path / "out"
        assert run_cli("calibrate", "--config", cfg, "--out", str(out),
                       "--target", "a1_spread=16:27") == 2
        assert ("config error: calibration-default: sheet_resistance_ohm_sq 1e-308 gives a "
                "plane whose node conductance, 4/R, is not finite") in capsys.readouterr().err
        assert not out.exists()

    def test_bad_calibration_override_exit_2(self, tmp_path, capsys):
        # A droop scale of 1e-310 is positive and finite, but the VR
        # branches' conductance 1/(scale * r_conduction) is not.
        for field, value, message in [
                ("pcb_lateral_resistance_ohm", -1, "pcb_lateral_resistance_ohm must be >= 0"),
                ("droop_share_resistance_scale", 1e-310,
                 "droop_share_resistance_scale 1e-310 gives DPMIH's VRs a ")]:
            cfg = write_config(tmp_path, {"datasets": {"calibration-default": {field: value}}})
            assert run_cli("calibrate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
            assert message in capsys.readouterr().err


class TestFeasibilityCommand:
    def test_reports_quartet_and_min_area(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("feasibility", "--out", str(out)) == 0
        doc = json.loads((out / "feasibility.json").read_text())
        util = {u["level"]: u for u in doc["utilization"]}
        assert util["bga"]["utilization_fraction"] <= 0.02
        assert 1080 <= doc["reference_min_die_area"]["min_die_area_mm2"] <= 1320

    def test_a_level_without_connection_sites_is_null_in_json(self, tmp_path):
        # A level with no connection sites is infinitely used: JSON, which
        # has no Infinity, says null; CSV and text keep inf.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"die_area_mm2": 1e-6})
        assert run_cli("feasibility", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads((out / "feasibility.json").read_text())
        assert [u["utilization_fraction"] for u in doc["utilization"]] == [None] * 4
        assert [row["utilization"] for row in csv_rows(out / "feasibility.csv")] == ["inf"] * 4
        assert (out / "feasibility.txt").read_text().count("(inf% vs cap") == 4

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_json_reports_refuse_a_non_finite_float(self, value):
        from pdnx.reporting import dump_json
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_json({"utilization_fraction": value})

    def test_strict_a0_fails(self, tmp_path):
        cfg = write_config(tmp_path, {"architectures": "A0"})
        assert run_cli("feasibility", "--config", cfg,
                       "--out", str(tmp_path / "o"), "--strict") == 3

    @pytest.mark.parametrize("edit, message", [
        (lambda c4: {**c4, "area_ratio_to_die": -2.4}, "c4: area_ratio_to_die must be > 0"),
        (lambda c4: {**c4, "area_ratio_to_die": 0}, "c4: area_ratio_to_die must be > 0"),
        (lambda c4: {**c4, "area_ratio_to_die": math.nan},
         "c4: area_ratio_to_die must be finite, got nan"),
        (lambda c4: {**c4, "pitch_um": math.inf}, "c4: pitch_um must be finite, got inf"),
        (lambda c4: {**c4, "pitch_um": None},
         "table1 level 'c4': pitch_um: None is not a number"),
        (lambda c4: {k: v for k, v in c4.items() if k != "area_ratio_to_die"},
         "table1 level 'c4': missing field 'area_ratio_to_die'"),
        # With c4 at -1e-6 ohm m, A0+DSCH was reported ok at a -0.626 W c4 loss.
        (lambda c4: {**c4, "resistivity_ohm_m": -1e-6}, "c4: resistivity_ohm_m must be >= 0"),
        (lambda c4: {**c4, "resistivity_ohm_m": "low"},
         "table1 level 'c4': resistivity_ohm_m: 'low' is not a number"),
        (lambda c4: None, "table1: stack level 'c4' is missing"),
        (5, "table1: levels must be a list of objects"),
        ([5], "table1: levels must be a list of objects"),
    ])
    def test_bad_table1_level_exit_2(self, tmp_path, capsys, edit, message):
        # A callable edit replaces the c4 row (None drops it); anything else
        # replaces the whole list.
        levels = edit
        if callable(edit):
            edited = (row if row["name"] != "c4" else edit(row)
                      for row in load_raw_dataset("table1")["levels"])
            levels = [row for row in edited if row is not None]
        cfg = write_config(tmp_path, {"datasets": {"table1": {"levels": levels}}})
        assert run_cli("feasibility", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda dsch: {k: v for k, v in dsch.items() if k != "eta_peak"},
         "table2 topology 'DSCH': missing field 'eta_peak'"),
        (lambda dsch: {**dsch, "vr_sites_periphery": None},
         "table2 topology 'DSCH': vr_sites_periphery: None is not an integer"),
        (lambda dsch: {**dsch, "vr_sites_periphery": 2.5},
         "table2 topology 'DSCH': vr_sites_periphery: 2.5 is not an integer"),
        (lambda dsch: {**dsch, "i_max_a": "thirty"},
         "table2 topology 'DSCH': i_max_a: 'thirty' is not a number"),
        (5, "table2: topologies must be a list of objects"),
        ([5], "table2: topologies must be a list of objects"),
    ])
    @pytest.mark.parametrize("command", ["feasibility", "evaluate"])
    def test_bad_table2_topology_exit_2(self, tmp_path, capsys, edit, message, command):
        # A callable edit replaces the DSCH row; anything else replaces the
        # whole list.
        topologies = edit
        if callable(edit):
            topologies = [row if row["name"] != "DSCH" else edit(row)
                          for row in load_raw_dataset("table2")["topologies"]]
        cfg = write_config(tmp_path, {"datasets": {"table2": {"topologies": topologies}}})
        assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# The options each command reads; every other report option is a usage error.
COMMAND_OPTIONS = {
    "datasets": {"--config"},
    "evaluate": {"--config", "--out", "--format", "--strict", "--stamp"},
    "compare": {"--config", "--out", "--format", "--strict", "--stamp"},
    "sweep": {"--config", "--out", "--param", "--values"},
    "calibrate": {"--config", "--out", "--target"},
    "feasibility": {"--config", "--out", "--format", "--strict"},
}
DROPPED = [(command, option) for command, options in COMMAND_OPTIONS.items()
           for option in ("--out", "--format", "--strict", "--stamp") if option not in options]


class TestOptions:
    @pytest.mark.parametrize("command", COMMAND_OPTIONS)
    def test_help_lists_exactly_the_command_options(self, capsys, command):
        assert run_cli(command, "--help") == 0
        listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert listed == COMMAND_OPTIONS[command] | {"--help"}

    @pytest.mark.parametrize("command,option", DROPPED)
    def test_an_option_the_command_does_not_read_exits_2(self, tmp_path, capsys, command,
                                                          option):
        # Each invocation is complete without the option, so only the option
        # can make it a usage error.
        out = tmp_path / "out"
        argv = {"sweep": ["--param", "total_power", "--values", "1000"]}.get(command, [])
        argv += ["--out", str(out)] if "--out" in COMMAND_OPTIONS[command] else []
        value = {"--out": [str(out)], "--format": ["json"]}.get(option, [])
        assert run_cli(command, *argv, option, *value) == 2
        err = capsys.readouterr().err
        assert f"pdnx {command}: error: unrecognized arguments: {option}" in err
        # The usage line is the command's own: it names the command and
        # exactly the options the command takes.
        usage = err.split(f"pdnx {command}: error")[0]
        assert usage.startswith(f"usage: pdnx {command} ")
        assert set(re.findall(r"--[a-z]+", usage)) == COMMAND_OPTIONS[command]
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        # The child finds the package where this process found it, installed
        # or not.
        src = str(Path(pdnx.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "pdnx.cli", "datasets"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "table1" in result.stdout

    @staticmethod
    def _loaded_after(steps):
        # One child imports pdnx, loads the datasets, then runs each command
        # in turn. After each of these steps it lists the numpy, scipy and
        # pdnx modules loaded (to two dotted parts) and the command's exit
        # code; the first two steps have no exit code.
        src = str(Path(pdnx.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import json, sys\n"
                "def loaded():\n"
                "    return sorted({'.'.join(m.split('.')[:2]) for m in sys.modules\n"
                "                   if m.split('.')[0] in ('numpy', 'scipy', 'pdnx')})\n"
                "import pdnx\n"
                "seen = [[None, loaded()]]\n"
                "pdnx.load_datasets()\n"
                "seen.append([None, loaded()])\n"
                "from pdnx.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    seen.append([main(argv), loaded()])\n"
                "print(json.dumps(seen))\n")
        result = subprocess.run([sys.executable, "-c", code, json.dumps(steps)],
                                capture_output=True, text=True, timeout=120,
                                env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    @staticmethod
    def _scipy(modules):
        return [m for m in modules if m.split(".")[0] == "scipy"]

    def test_numpy_is_imported_only_by_a_command_that_evaluates(self, tmp_path):
        # Each exported name loads its submodule on first use, and the CLI
        # imports architecture, reporting and calibrate inside the commands
        # that evaluate. So importing pdnx, loading the datasets, `pdnx
        # datasets`, --help and a usage or config error load no numpy and
        # none of the modules that need it. A bad calibration target is
        # parsed by the calibration module, whose fits import the evaluation
        # only when they run.
        bad_arch = write_config(tmp_path, {"architectures": "A9"})
        # The report settings are options only, so a run config that sets one
        # is refused as an unknown field.
        reports = []
        for key, value in (("out_dir", "o"), ("formats", ["json"]), ("strict", True)):
            (tmp_path / f"{key}.json").write_text(json.dumps({key: value}))
            reports.append(["evaluate", "--config", str(tmp_path / f"{key}.json")])
        steps = [["datasets"], ["--help"], ["compare", "--config", str(tmp_path / "none.json")],
                 ["evaluate", "--format", "xml"], ["evaluate", "--config", bad_arch],
                 *reports, ["sweep", "--param", "nope", "--values", "1"], ["nonesuch"],
                 ["calibrate", "--target", "bogus=1"]]
        seen = self._loaded_after(steps)
        assert seen[0] == [None, ["pdnx"]]
        assert seen[1] == [None, ["pdnx", "pdnx.converter", "pdnx.datasets", "pdnx.errors",
                                  "pdnx.interconnect"]]
        assert [code for code, _ in seen[2:]] == [0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2]
        for _, modules in seen:
            assert not {"numpy", "pdnx.floats", "pdnx.pdn_grid", "pdnx.architecture",
                        "pdnx.placement", "pdnx.reporting"} & set(modules)
            assert self._scipy(modules) == []
        assert ["pdnx.calibrate" in modules for _, modules in seen] == [False] * 12 + [True]

    def test_a_refused_run_loads_no_numpy(self, tmp_path):
        # Each refused run config is refused on every command before numpy,
        # and so before any cell, is loaded.
        steps = []
        for k, (doc, _) in enumerate(REFUSED_RUNS):
            (tmp_path / f"run{k}").mkdir()
            cfg = write_config(tmp_path / f"run{k}", doc)
            steps += [command_argv(command, cfg, tmp_path / "out") for command in COMMANDS]
        seen = self._loaded_after(steps)
        assert [code for code, _ in seen[2:]] == [2] * len(steps)
        assert all("numpy" not in modules for _, modules in seen)
        assert not (tmp_path / "out").exists()

    def test_scipy_is_imported_only_where_a_plane_is_factored(self, tmp_path):
        # pdn_grid imports scipy.linalg where a band factor is made or
        # solved, so importing pdnx, loading the datasets and a command that
        # factors no plane load no scipy module.
        a0 = write_config(tmp_path, {"architectures": "A0", "topologies": ["DSCH", "DPMIH"]})
        steps = [["datasets"], ["feasibility", "--out", str(tmp_path / "feasibility")],
                 ["compare", "--config", a0, "--out", str(tmp_path / "a0")]]
        seen = self._loaded_after(steps)
        assert [code for code, _ in seen] == [None, None, 0, 0, 0]
        assert [self._scipy(modules) for _, modules in seen] == [[]] * 5
        for out in ("feasibility", "a0"):
            assert any((tmp_path / out).iterdir())

    def test_a_default_compare_does_not_import_scipy_sparse(self, tmp_path):
        # scipy.sparse serves only the SuperLU factor of a reduced block
        # wider than pdn_grid._REDUCED_MAX_WIDTH, which no default run
        # reaches, so it is imported there and not with pdnx; the band
        # factors of a default compare load scipy.linalg, and numpy comes
        # with the plane solver.
        *_, (code, after) = self._loaded_after([["compare", "--out", str(tmp_path / "out")]])
        assert code == 0
        assert {"numpy", "pdnx.pdn_grid", "scipy.linalg"} <= set(after)
        assert "scipy.sparse" not in after
        assert (tmp_path / "out" / "comparison.json").exists()


class TestStampBehavior:
    def test_unstamped_text_reports_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli("evaluate", "--out", str(out1)) == 0
        assert run_cli("evaluate", "--out", str(out2)) == 0
        assert (out1 / "breakdown.txt").read_bytes() == (out2 / "breakdown.txt").read_bytes()

    def test_stamp_adds_timestamp_to_text_only(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("evaluate", "--out", str(out), "--stamp") == 0
        assert (out / "breakdown.txt").read_text().startswith("generated:")
        doc = json.loads((out / "breakdown.json").read_text())
        assert "generated" not in doc

    def test_a2_spread_target_is_numerical_failure(self, tmp_path):
        assert run_cli("calibrate", "--out", str(tmp_path / "o"),
                       "--target", "a2_spread=10:93") == 4


# Zero, negative and non-finite: out of range for every sweep knob that is a
# resistance, multiplier, area or power, and for every calibration target.
FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1")
# Valid values at the ends of the float range: a sweep must give each one a
# verdict, and an overflow is an error row, never a traceback or a figure.
EXTREME_VALUES = ("1e-300", "1e300")
FIGURE_COLUMNS = ("total_loss_w", "total_loss_pct", "horizontal_loss_w", "converter_loss_w",
                  "vertical_loss_w", "pcb_lateral_loss_w")


class TestBadValueFuzz:
    """A documented exit code, never a traceback, and no ok row with a
    negative or non-finite figure, whatever out-of-range or extreme value a
    sweep or target gets."""

    @pytest.mark.parametrize("param", SWEEP_PARAMETERS)
    @settings(max_examples=4, deadline=None)
    @example(arch="A1", values=list(FUZZ_VALUES))
    @example(arch="A2", values=list(EXTREME_VALUES))
    @given(arch=st.sampled_from(ARCHITECTURE_NAMES),
           values=st.lists(st.sampled_from(FUZZ_VALUES + EXTREME_VALUES),
                           min_size=1, max_size=3))
    def test_sweep(self, param, arch, values):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), {"architectures": arch, "topologies": "DSCH"})
            code = run_cli("sweep", "--config", cfg, "--out", tmp, "--param", param,
                           "--values=" + ",".join(values))
            assert code in (0, 2, 3, 4)
            if code == 0:
                rows = csv_rows(Path(tmp) / f"sweep_{param}.csv")
                assert len(rows) == len(values)
                for row in rows:
                    if row["status"] == "ok":
                        assert all(math.isfinite(float(row[col])) and float(row[col]) >= 0
                                   for col in FIGURE_COLUMNS), row

    @pytest.mark.parametrize("target", ["a0_loss_pct", "min_die_area", "a1_spread",
                                        "a2_spread", "utilizations"])
    @settings(max_examples=8, deadline=None)
    @example(lo="nan", hi="nan", level="c4")
    @given(lo=st.sampled_from(FUZZ_VALUES), hi=st.sampled_from(FUZZ_VALUES),
           level=st.sampled_from(["bga", "c4", "tsv", "adv_pad"]))
    def test_calibrate(self, target, lo, hi, level):
        value = {"a1_spread": f"{lo}:{hi}", "a2_spread": f"{lo}:{hi}",
                 "utilizations": f"{level}:{lo}"}.get(target, lo)
        with tempfile.TemporaryDirectory() as tmp:
            code = run_cli("calibrate", "--out", tmp, "--target", f"{target}={value}")
        assert code == 2
