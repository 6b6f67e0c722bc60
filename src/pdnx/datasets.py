"""Built-in datasets and field-wise override merging.

Three datasets ship with the package: "table1" (vertical interconnect
levels), "table2" (converter topologies), and "calibration-default" (fitted
model parameters). A user override file with the same shape replaces fields
one by one; PDNX_DATA_DIR points the loader at an alternative dataset
directory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

from .converter import CalibratedLossModel, ConverterTopology, calibrate
from .errors import ConfigError
from .interconnect import InterconnectLevel, UtilizationPolicy

BUILTIN_NAMES = ("table1", "table2", "calibration-default")


# Smallest admissible value of each numeric calibration field, and whether
# that value itself is admissible.
_LOWER_BOUNDS = {
    "sheet_resistance_ohm_sq": (0.0, False),
    "die_grid_multiplier": (0.0, False),
    "power_die_multiplier": (0.0, False),
    "interposer_margin_mm": (0.0, False),
    "pcb_lateral_resistance_ohm": (0.0, True),
    "droop_share_resistance_scale": (0.0, True),
    "demand_weight": (-1.0, True),
}


@dataclass(frozen=True)
class Calibration:
    """Fitted model parameters shipped alongside the raw datasheets.

    Construction rejects, with ValueError, a number that is not finite or
    lies outside its field's range, a sheet resistance that leaves a plane
    node's four edge conductances out of the float range, an unknown die
    attach or DPMIH variant and an idle_shutdown that is not a bool, so
    loading, overrides, sweeps and calibration fits share one check.
    """

    resistivity_ohm_m: dict[str, float]
    ampacity_a: dict[str, float]
    max_usage_fraction: dict[str, float]
    sheet_resistance_ohm_sq: float
    droop_share_resistance_scale: float
    die_grid_multiplier: float
    power_die_multiplier: float
    pcb_lateral_resistance_ohm: float
    demand_weight: float
    grid_resolution: int
    dpmih_efficiency_variant: str     # "nominal" | "text"
    die_attach_level: str             # "adv_pad" | "u_bump"
    interposer_margin_mm: float
    idle_shutdown: bool
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.idle_shutdown, bool):
            raise ValueError(f"idle_shutdown must be true or false, got {self.idle_shutdown!r}")
        for name, (low, inclusive) in _LOWER_BOUNDS.items():
            value = getattr(self, name)
            if not (math.isfinite(value) and (value >= low if inclusive else value > low)):
                raise ValueError(f"{name} must be {'>=' if inclusive else '>'} {low:g} "
                                 f"and finite, got {value!r}")
        # A plane's sheet is sheet_resistance_ohm_sq times 1 or a plane
        # multiplier. A node's diagonal sums up to four edge conductances,
        # so 4/R must be finite.
        sheet = self.sheet_resistance_ohm_sq
        for name in (None, "die_grid_multiplier", "power_die_multiplier"):
            plane = sheet * (1.0 if name is None else getattr(self, name))
            if not (plane > 0 and math.isfinite(4.0 / plane)):
                times = "" if name is None else f" times {name} {getattr(self, name)!r}"
                raise ValueError(f"sheet_resistance_ohm_sq {sheet!r}{times} gives a plane "
                                 "whose node conductance, 4/R, is not finite")
        resolution = self.grid_resolution
        if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 2:
            raise ValueError(f"grid_resolution must be an integer >= 2, got {resolution!r}")
        for name in ("resistivity_ohm_m", "ampacity_a", "max_usage_fraction"):
            for key, value in getattr(self, name).items():
                if not (math.isfinite(value) and value >= 0):
                    raise ValueError(f"{name}[{key}] must be >= 0 and finite, got {value!r}")
        self.policy()   # usage caps in (0, 1] and ampacities > 0
        for name, allowed in (("die_attach_level", ("adv_pad", "u_bump")),
                              ("dpmih_efficiency_variant", ("nominal", "text"))):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} '{value}' is not one of {', '.join(allowed)}")

    def policy(self) -> UtilizationPolicy:
        return UtilizationPolicy(dict(self.max_usage_fraction), dict(self.ampacity_a))

    def droop_ohm(self, model: CalibratedLossModel) -> float:
        """Output droop of a VR with this loss model: its VR branches together
        carry droop_share_resistance_scale times its conduction resistance."""
        return self.droop_share_resistance_scale * model.r_conduction_ohm


@dataclass(frozen=True)
class VrSiteCounts:
    periphery: int
    below_die: int


@dataclass
class Datasets:
    """Everything the evaluators need, assembled from the three datasets."""

    levels: dict[str, InterconnectLevel]
    topologies: dict[str, ConverterTopology]
    vr_site_counts: dict[str, VrSiteCounts]
    calibration: Calibration
    reference_die_area_mm2: float
    overridden_fields: tuple[str, ...] = ()

    def stack_levels(self) -> tuple[str, ...]:
        """Level names on the vertical power path, PCB side to die side.

        One of the two die-attach variants is on the path at a time; the
        calibration selects which (the other stays available in the dataset).
        """
        return ("bga", "c4", "tsv", self.calibration.die_attach_level)


def _builtin_dir() -> Path:
    env = os.environ.get("PDNX_DATA_DIR")
    if env:
        p = Path(env)
        if not p.is_dir():
            raise ConfigError(f"PDNX_DATA_DIR is not a directory: {env}")
        return p
    return Path(str(resources.files("pdnx").joinpath("data")))


def _read_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"unknown dataset file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def load_raw_dataset(name: str) -> dict:
    if name not in BUILTIN_NAMES:
        raise ConfigError(f"unknown dataset '{name}' (built-ins: {', '.join(BUILTIN_NAMES)})")
    return _read_json(_builtin_dir() / f"{name}.json")


def _merge(base, override, path: str, touched: list[str]):
    """Field-wise merge: override leaves win, dicts recurse, lists replace."""
    if isinstance(base, dict) and isinstance(override, dict):
        out = dict(base)
        for key, value in override.items():
            sub = f"{path}.{key}" if path else key
            if key in base:
                out[key] = _merge(base[key], value, sub, touched)
            else:
                out[key] = value
                touched.append(sub)
        return out
    touched.append(path)
    return override


def load_datasets(overrides: dict | None = None) -> Datasets:
    """Assemble the working dataset bundle, applying optional overrides.

    The override document groups fields by dataset name, e.g.
    {"calibration-default": {"sheet_resistance_ohm_sq": 1e-3}}. A field the
    dataset does not have is a ConfigError, except the residuals that a
    calibration document carries; maps inside a field, such as ampacity_a,
    take new keys.
    """
    raw = {name: load_raw_dataset(name) for name in BUILTIN_NAMES}
    touched: list[str] = []
    if overrides:
        for name, chunk in overrides.items():
            if name not in raw:
                raise ConfigError(
                    f"unknown dataset '{name}' (built-ins: {', '.join(BUILTIN_NAMES)})"
                )
            if not isinstance(chunk, dict):
                raise ConfigError(f"{name}: an override must be an object of fields")
            unknown = [key for key in chunk if key not in raw[name]
                       and (name, key) != ("calibration-default", "residuals")]
            if unknown:
                raise ConfigError(f"{name}: unknown field(s) {', '.join(unknown)}")
            raw[name] = _merge(raw[name], chunk, name, touched)
    return _assemble(raw, tuple(touched))


def _number(row: dict, name: str, kind: type = float, default=None):
    """row[name] as kind (float or int); a missing field without a default is
    a KeyError, and a null, non-numeric or, for int, fractional value a
    TypeError that names the field."""
    value = row[name] if default is None else row.get(name, default)
    try:
        number = kind(value)
        if kind is int and number != float(value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise TypeError(f"{name}: {value!r} is not {what}") from None
    return number


def _read_rows(raw: dict, table: str, key: str, kind: str, build) -> list:
    """build(row) for each row of raw[table][key]; a key that is not a list of
    objects, or a row with a missing field or a bad value, is a ConfigError."""
    rows = raw[table].get(key)
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise ConfigError(f"{table}: {key} must be a list of objects")
    built = []
    for row in rows:
        try:
            built.append(build(row))
        except KeyError as exc:
            raise ConfigError(f"{table} {kind} '{row.get('name', '?')}': "
                              f"missing field {exc}") from None
        except TypeError as exc:
            raise ConfigError(f"{table} {kind} '{row.get('name', '?')}': {exc}") from None
    return built


def _assemble(raw: dict[str, dict], touched: tuple[str, ...]) -> Datasets:
    cal_doc = raw["calibration-default"]
    try:
        resolution = cal_doc["grid_resolution"]
        if isinstance(resolution, float) and not resolution.is_integer():
            raise ValueError(f"grid_resolution must be an integer, got {resolution!r}")
        calibration = Calibration(
            resistivity_ohm_m=dict(cal_doc["resistivity_ohm_m"]),
            ampacity_a=dict(cal_doc["ampacity_a"]),
            max_usage_fraction=dict(cal_doc["max_usage_fraction"]),
            **{name: _number(cal_doc, name) for name in _LOWER_BOUNDS},
            grid_resolution=int(resolution),
            dpmih_efficiency_variant=str(cal_doc["dpmih_efficiency_variant"]),
            die_attach_level=str(cal_doc["die_attach_level"]),
            idle_shutdown=cal_doc["idle_shutdown"],
            notes=tuple(cal_doc.get("notes", ())),
        )
    except KeyError as exc:
        raise ConfigError(f"calibration-default: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"calibration-default: {exc}") from None

    def level(row: dict) -> InterconnectLevel:
        material = row["material"]
        if material not in calibration.resistivity_ohm_m:
            raise ConfigError(f"table1 level '{row.get('name', '?')}': "
                              f"no resistivity for '{material}'")
        return InterconnectLevel(
            name=row["name"],
            platform_area_mm2=_number(row, "platform_area_mm2"),
            resistivity_ohm_m=(calibration.resistivity_ohm_m[material]
                               if row.get("resistivity_ohm_m") is None
                               else _number(row, "resistivity_ohm_m")),
            cross_area_um2=_number(row, "cross_area_um2"),
            height_um=_number(row, "height_um"),
            pitch_um=_number(row, "pitch_um"),
            area_ratio_to_die=_number(row, "area_ratio_to_die"),
        )

    def topology(row: dict) -> tuple[ConverterTopology, VrSiteCounts]:
        eta = _number(row, "eta_peak")
        if (row.get("name") == "DPMIH"
                and calibration.dpmih_efficiency_variant == "text"
                and row.get("alt_eta_peak_text") is not None):
            eta = _number(row, "alt_eta_peak_text")
        topo = ConverterTopology(
            name=row["name"],
            v_in_v=_number(row, "v_in_v"),
            v_out_v=_number(row, "v_out_v"),
            i_max_a=_number(row, "i_max_a"),
            eta_peak=eta,
            i_at_peak_a=_number(row, "i_at_peak_a"),
            n_switches=_number(row, "n_switches", int),
            switch_density_per_mm2=_number(row, "switch_density_per_mm2"),
        )
        return topo, VrSiteCounts(periphery=_number(row, "vr_sites_periphery", int),
                                  below_die=_number(row, "vr_sites_below_die", int))

    levels = {lv.name: lv for lv in _read_rows(raw, "table1", "levels", "level", level)}
    rows = _read_rows(raw, "table2", "topologies", "topology", topology)
    topologies = {topo.name: topo for topo, _ in rows}
    counts = {topo.name: site_counts for topo, site_counts in rows}
    scale = calibration.droop_share_resistance_scale
    for topo in topologies.values():
        model = calibrate(topo)
        droop = calibration.droop_ohm(model)
        if scale > 0 and model.r_conduction_ohm > 0 and not (
                droop > 0 and math.isfinite(1.0 / droop)):
            raise ConfigError(
                f"calibration-default: droop_share_resistance_scale {scale!r} gives "
                f"{topo.name}'s VRs a {droop:.3g} ohm droop, whose conductance is not finite")

    datasets = Datasets(
        levels=levels,
        topologies=topologies,
        vr_site_counts=counts,
        calibration=calibration,
        reference_die_area_mm2=float(raw["table1"].get("reference_die_area_mm2", 500.0)),
        overridden_fields=touched,
    )
    for name in datasets.stack_levels():
        if name not in levels:
            raise ConfigError(f"table1: stack level '{name}' is missing")
    return datasets


def calibration_to_document(calibration: Calibration, provenance: str,
                            residuals: dict[str, float] | None = None) -> dict:
    """Serialize a calibration back to the dataset JSON shape."""
    doc = {"provenance": provenance, **asdict(calibration)}
    if residuals is not None:
        doc["residuals"] = dict(residuals)
    return doc
