"""Dataset loading, override merging, and run-config parsing."""

import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from pdnx.cli import main
from pdnx.config import load_config, parse_config_text
from pdnx.datasets import BUILTIN_NAMES, calibration_to_document, load_datasets, load_raw_dataset
from pdnx.errors import ConfigError


class TestBuiltins:
    def test_three_datasets_ship(self):
        assert BUILTIN_NAMES == ("table1", "table2", "calibration-default")
        for name in BUILTIN_NAMES:
            raw = load_raw_dataset(name)
            assert raw.get("provenance")

    def test_levels_field_for_field(self):
        ds = load_datasets()
        bga = ds.levels["bga"]
        assert bga.platform_area_mm2 == 1800.0
        assert bga.cross_area_um2 == 125664.0
        assert bga.height_um == 300.0
        assert bga.pitch_um == 800.0
        assert bga.resistivity_ohm_m == ds.calibration.resistivity_ohm_m["solder"]
        pad = ds.levels["adv_pad"]
        assert pad.cross_area_um2 == 100.0

    def test_diameter_is_not_read(self):
        # table1 keeps each level's diameter_um as data; no model reads it.
        levels = [{**row, "diameter_um": "wide"} for row in load_raw_dataset("table1")["levels"]]
        assert load_datasets({"table1": {"levels": levels}}).levels == load_datasets().levels

    def test_topologies_field_for_field(self):
        ds = load_datasets()
        dsch = ds.topologies["DSCH"]
        assert dsch.i_max_a == 30.0
        assert dsch.eta_peak == 0.915
        assert dsch.i_at_peak_a == 10.0
        assert dsch.n_switches == 5
        assert ds.vr_site_counts["DSCH"].periphery == 48
        assert ds.vr_site_counts["DPMIH"].below_die == 7

    def test_unknown_dataset_name(self):
        with pytest.raises(ConfigError, match="nonsense"):
            load_raw_dataset("nonsense")


class TestOverrides:
    def test_field_wise_merge(self):
        ds = load_datasets({"calibration-default": {"sheet_resistance_ohm_sq": 0.001}})
        assert ds.calibration.sheet_resistance_ohm_sq == 0.001
        # untouched siblings survive
        assert ds.calibration.pcb_lateral_resistance_ohm == 0.0003
        assert "calibration-default.sheet_resistance_ohm_sq" in ds.overridden_fields

    def test_nested_merge(self):
        ds = load_datasets({"calibration-default": {"ampacity_a": {"bga": 2.0}}})
        assert ds.calibration.ampacity_a["bga"] == 2.0
        assert ds.calibration.ampacity_a["c4"] == 0.0351

    def test_unknown_dataset_in_overrides(self):
        with pytest.raises(ConfigError, match="table9"):
            load_datasets({"table9": {}})

    @pytest.mark.parametrize("name,field", [
        ("calibration-default", "sheet_resistance"), ("calibration-default", "derating"),
        ("table1", "level"), ("table2", "residuals")])
    def test_unknown_field_rejected(self, name, field):
        with pytest.raises(ConfigError, match=f"{name}: unknown field.* {field}$"):
            load_datasets({name: {field: 1e-3}})

    @pytest.mark.parametrize("chunk", [5, "x", [1]])
    def test_override_that_is_not_an_object_rejected(self, chunk):
        with pytest.raises(ConfigError, match="table1: an override must be an object"):
            load_datasets({"table1": chunk})

    def test_nested_map_takes_a_new_key(self):
        ds = load_datasets({"calibration-default": {"ampacity_a": {"new_level": 2.0}}})
        assert ds.calibration.ampacity_a["new_level"] == 2.0

    def test_calibration_document_loads_back(self):
        cal = load_datasets().calibration
        cal = replace(cal, demand_weight=1.25, ampacity_a={**cal.ampacity_a, "c4": 0.04})
        doc = json.loads(json.dumps(
            calibration_to_document(cal, "fitted", {"a0_loss_pct": 1e-3})))
        assert load_datasets({"calibration-default": doc}).calibration == cal

    def test_unknown_field_in_run_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"datasets": {"calibration-default": {"derating": 0.5}}}))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "calibration-default: unknown field(s) derating" in capsys.readouterr().err

    def test_dpmih_text_variant(self):
        ds = load_datasets({"calibration-default": {"dpmih_efficiency_variant": "text"}})
        assert ds.topologies["DPMIH"].eta_peak == 0.909
        nominal = load_datasets()
        assert nominal.topologies["DPMIH"].eta_peak == 0.900

    @pytest.mark.parametrize("name,value", [("die_attach_level", "glue"),
                                            ("dpmih_efficiency_variant", "fancy")])
    def test_unknown_enumerated_value_rejected_at_load(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} '{value}'"):
            load_datasets({"calibration-default": {name: value}})

    def test_u_bump_attach_is_on_the_stack(self):
        ds = load_datasets({"calibration-default": {"die_attach_level": "u_bump"}})
        assert ds.stack_levels() == ("bga", "c4", "tsv", "u_bump")

    def test_data_dir_env(self, tmp_path, monkeypatch):
        src = Path(load_raw_dataset.__globals__["_builtin_dir"]())
        for name in BUILTIN_NAMES:
            shutil.copy(src / f"{name}.json", tmp_path / f"{name}.json")
        doc = json.loads((tmp_path / "calibration-default.json").read_text())
        doc["demand_weight"] = 3.5
        (tmp_path / "calibration-default.json").write_text(json.dumps(doc))
        monkeypatch.setenv("PDNX_DATA_DIR", str(tmp_path))
        ds = load_datasets()
        assert ds.calibration.demand_weight == 3.5


# One out-of-range value per check of Calibration.__post_init__.
BAD_CALIBRATION_VALUES = [
    ("sheet_resistance_ohm_sq", 0.0), ("sheet_resistance_ohm_sq", math.nan),
    ("sheet_resistance_ohm_sq", 1e-310),
    ("die_grid_multiplier", -1.0), ("power_die_multiplier", math.inf),
    ("interposer_margin_mm", 0.0),
    ("pcb_lateral_resistance_ohm", -1e-6), ("droop_share_resistance_scale", -math.inf),
    ("demand_weight", -1.5), ("demand_weight", math.nan), ("grid_resolution", 1),
    ("die_attach_level", "foo"), ("dpmih_efficiency_variant", "bar"),
    ("idle_shutdown", "yes"),
]


class TestCalibrationValidation:
    @pytest.mark.parametrize("name,value", BAD_CALIBRATION_VALUES)
    def test_rejected_at_load(self, name, value):
        with pytest.raises(ConfigError, match=name):
            load_datasets({"calibration-default": {name: value}})

    @pytest.mark.parametrize("name,value", BAD_CALIBRATION_VALUES)
    def test_rejected_by_replace(self, name, value):
        with pytest.raises(ValueError, match=name):
            replace(load_datasets().calibration, **{name: value})

    @pytest.mark.parametrize("name,value", [
        ("pcb_lateral_resistance_ohm", 0.0), ("droop_share_resistance_scale", 0.0),
        ("demand_weight", -1.0), ("grid_resolution", 2)])
    def test_bounds_are_admitted(self, name, value):
        ds = load_datasets({"calibration-default": {name: value}})
        assert getattr(ds.calibration, name) == value

    @pytest.mark.parametrize("multiplier", ["die_grid_multiplier", "power_die_multiplier"])
    def test_a_plane_sheet_whose_conductance_overflows_is_rejected(self, multiplier):
        # 6e-4 ohm/sq times 1e-306 is a plane sheet of 6e-310 ohm/sq, whose
        # reciprocal is not finite; 1e-300 leaves it at 6e-304 ohm/sq.
        message = (f"sheet_resistance_ohm_sq 0.0006 times {multiplier} 1e-306 gives a plane "
                   "whose node conductance, 4/R, is not finite")
        with pytest.raises(ConfigError, match=message):
            load_datasets({"calibration-default": {"sheet_resistance_ohm_sq": 6e-4,
                                                   multiplier: 1e-306}})
        ds = load_datasets({"calibration-default": {"sheet_resistance_ohm_sq": 6e-4,
                                                    multiplier: 1e-300}})
        assert getattr(ds.calibration, multiplier) == 1e-300

    @pytest.mark.parametrize("multiplier,value", [
        (None, 1e-308), ("die_grid_multiplier", 1e-305), ("power_die_multiplier", 1e-305)])
    def test_a_plane_whose_node_diagonal_overflows_is_rejected(self, multiplier, value):
        # A node's diagonal sums up to four edge conductances: a plane
        # sheet of 1e-308 ohm/sq (6e-4 times 1e-305 is 6e-309) has a
        # finite 1/R but not 4/R. 4e-308 has both.
        override = ({"sheet_resistance_ohm_sq": value} if multiplier is None
                    else {"sheet_resistance_ohm_sq": 6e-4, multiplier: value})
        with pytest.raises(ConfigError, match="whose node conductance, 4/R, is not finite"):
            load_datasets({"calibration-default": override})
        assert math.isfinite(1.0 / (override["sheet_resistance_ohm_sq"]
                                    * override.get(multiplier, 1.0)))
        ds = load_datasets({"calibration-default": {"sheet_resistance_ohm_sq": 4e-308}})
        assert ds.calibration.sheet_resistance_ohm_sq == 4e-308

    @pytest.mark.parametrize("value", ["abc", None])
    @pytest.mark.parametrize("name", [
        "sheet_resistance_ohm_sq", "die_grid_multiplier", "power_die_multiplier",
        "interposer_margin_mm", "pcb_lateral_resistance_ohm", "droop_share_resistance_scale",
        "demand_weight"])
    def test_non_numeric_value_names_its_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^calibration-default: {name}: "):
            load_datasets({"calibration-default": {name: value}})

    @pytest.mark.parametrize("override", [
        {"resistivity_ohm_m": {"copper": -1e-8}}, {"ampacity_a": {"c4": math.nan}},
        {"ampacity_a": {"c4": 0.0}}, {"max_usage_fraction": {"bga": 1.5}},
        {"sheet_resistance_ohm_sq": None}, {"grid_resolution": math.inf},
        {"demand_weight": "heavy"}])
    def test_nested_and_malformed_values_rejected_at_load(self, override):
        with pytest.raises(ConfigError, match="calibration-default"):
            load_datasets({"calibration-default": override})


class TestLevelResistivity:
    """A table1 row's resistivity_ohm_m overrides its material's default;
    only an absent or null field falls back to it. (A negative or
    non-numeric one is refused: TestFeasibilityCommand in test_cli.py.)"""

    @staticmethod
    def _c4_resistivity(value) -> dict:
        levels = [row if row["name"] != "c4" else {**row, "resistivity_ohm_m": value}
                  for row in load_raw_dataset("table1")["levels"]]
        return {"table1": {"levels": levels}}

    def test_zero_is_kept(self):
        # Read with `or`, 0.0 became the c4 default.
        assert load_datasets(self._c4_resistivity(0.0)).levels["c4"].resistivity_ohm_m == 0.0

    def test_absent_or_null_is_the_material_default(self):
        assert not any("resistivity_ohm_m" in row for row in load_raw_dataset("table1")["levels"])
        for ds in (load_datasets(), load_datasets(self._c4_resistivity(None))):
            assert ds.levels["c4"].resistivity_ohm_m == 1.4e-07
            assert ds.calibration.resistivity_ohm_m["solder"] == 1.4e-07


class TestIntegralGridResolution:
    """grid_resolution is never truncated: a fractional value is refused."""

    @pytest.mark.parametrize("value", [32.7, 2.5, 48.000001])
    def test_fraction_rejected_by_override(self, value):
        with pytest.raises(ConfigError, match="grid_resolution must be an integer"):
            load_datasets({"calibration-default": {"grid_resolution": value}})

    def test_fraction_rejected_at_load(self, tmp_path, monkeypatch):
        src = Path(load_raw_dataset.__globals__["_builtin_dir"]())
        for name in BUILTIN_NAMES:
            shutil.copy(src / f"{name}.json", tmp_path / f"{name}.json")
        doc = json.loads((tmp_path / "calibration-default.json").read_text())
        doc["grid_resolution"] = 32.7
        (tmp_path / "calibration-default.json").write_text(json.dumps(doc))
        monkeypatch.setenv("PDNX_DATA_DIR", str(tmp_path))
        with pytest.raises(ConfigError, match="grid_resolution must be an integer"):
            load_datasets()

    def test_integral_float_admitted(self):
        ds = load_datasets({"calibration-default": {"grid_resolution": 33.0}})
        assert ds.calibration.grid_resolution == 33
        assert isinstance(ds.calibration.grid_resolution, int)

    def test_fraction_in_run_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"datasets": {"calibration-default": {"grid_resolution": 32.7}}}))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "grid_resolution must be an integer" in capsys.readouterr().err


class TestBooleanIdleShutdown:
    """idle_shutdown is a JSON boolean; no other value is read as one."""

    @pytest.mark.parametrize("value", ["false", "no", "true", 2, 1, 0, [0], None])
    def test_non_boolean_rejected_by_override(self, value):
        with pytest.raises(ConfigError, match="idle_shutdown must be true or false"):
            load_datasets({"calibration-default": {"idle_shutdown": value}})

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_admitted(self, value):
        ds = load_datasets({"calibration-default": {"idle_shutdown": value}})
        assert ds.calibration.idle_shutdown is value

    def test_string_in_run_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"datasets": {"calibration-default": {"idle_shutdown": "false"}}}))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "idle_shutdown must be true or false" in capsys.readouterr().err


class TestConfigDialects:
    JSON_DOC = """
    {
      "architectures": ["A1", "A2"],
      "topologies": ["DSCH"],
      "total_power_w": 1000,
      "pol_voltage_v": 1.0,
      "datasets": {"calibration-default": {"demand_weight": 1.5}}
    }
    """
    DOTTED_DOC = """
    # same run, spelled in the flat dialect
    architectures = A1,A2
    topologies = DSCH
    total_power_w = 1000
    pol_voltage_v = 1.0
    datasets.calibration-default.demand_weight = 1.5
    """

    def test_dialects_agree(self):
        a = parse_config_text(self.JSON_DOC)
        b = parse_config_text(self.DOTTED_DOC)
        assert a == b
        assert a.architectures == ["A1", "A2"]
        assert a.dataset_overrides == {"calibration-default": {"demand_weight": 1.5}}

    def test_single_name_becomes_list(self):
        cfg = parse_config_text('{"architectures": "A0"}')
        assert cfg.architectures == ["A0"]

    @pytest.mark.parametrize("key", ["architectures", "topologies"])
    def test_empty_name_list_rejected(self, key):
        # Every command reads the first name, so an empty list is refused on read.
        with pytest.raises(ConfigError, match=f"^field '{key}': expected a name or a "
                                              "non-empty list of names$"):
            parse_config_text(f'{{"{key}": []}}')

    def test_unknown_field_diagnosed(self):
        with pytest.raises(ConfigError, match="pol_volts"):
            parse_config_text('{"pol_volts": 1.0}')

    def test_bad_unit_value(self):
        with pytest.raises(ConfigError, match="total_power_w"):
            parse_config_text('{"total_power_w": -5}')

    def test_dotted_syntax_error_carries_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("total_power_w = 1000\nwhat is this\n")

    def test_bad_json_carries_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config_text('{"architectures": [}')

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="^unknown config field\\(s\\): formats$"):
            parse_config_text('{"formats": ["json", "xml"]}')

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.json"))
