"""Run configuration parsing.

Two equivalent config dialects are accepted: a JSON document, or a flat
"dotted.key = value" text file. Field names carry their units. Parse errors
report the offending line or field so the CLI can exit with a usable
diagnostic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError

_KNOWN_KEYS = {
    "architectures", "topologies", "total_power_w", "pol_voltage_v",
    "die_area_mm2", "datasets",
}
# The built-in delivery plans: each plan's package stages, source side first,
# as (placement, converter family, output rail). A family or rail of None is
# the run's POL topology or POL voltage. A0 converts at the board.
PLANS = {
    "A0": (),
    "A1": (("interposer_periphery", None, None),),
    "A2": (("in_interposer", None, None),),
    "A3@12V": (("interposer_periphery", "DPMIH", 12.0), ("power_die", None, None)),
    "A3@6V": (("interposer_periphery", "DPMIH", 6.0), ("power_die", None, None)),
}
ARCHITECTURE_NAMES = tuple(PLANS)
INPUT_VOLTAGE_V = 48.0   # the board rail


def check_pol_voltage(arch_name: str, pol_voltage_v: float) -> None:
    """Refuse a POL voltage that is not finite and > 0, or not below the
    board rail and every fixed rail of the plan (no stage steps its rail up),
    or labelled as one of them: reports key each rail by f"{v:g}V"."""
    if not (math.isfinite(pol_voltage_v) and pol_voltage_v > 0):
        raise ValueError(f"pol_voltage_v must be > 0 and finite, got {pol_voltage_v!r}")
    rails = [(INPUT_VOLTAGE_V, "board rail")]
    rails += [(rail, f"intermediate rail of {arch_name}")
              for _, _, rail in PLANS[arch_name] if rail is not None]
    for rail, what in rails:
        if not pol_voltage_v < rail:
            raise ValueError(f"pol_voltage_v {pol_voltage_v:g} V is not below the "
                             f"{rail:g} V {what}")
        if f"{pol_voltage_v:g}" == f"{rail:g}":
            raise ValueError(f"pol_voltage_v {pol_voltage_v!r} V is labelled as the "
                             f"{rail:g} V {what}")


@dataclass
class RunConfig:
    architectures: list[str] = field(default_factory=lambda: ["A1"])
    topologies: list[str] = field(default_factory=lambda: ["DSCH"])
    total_power_w: float = 1000.0
    pol_voltage_v: float = 1.0
    die_area_mm2: float | None = None
    dataset_overrides: dict = field(default_factory=dict)


def _coerce_scalar(text: str):
    """Interpret one dotted-dialect value: JSON literal, list, or bare string."""
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    if "," in text:
        return [_coerce_scalar(part) for part in text.split(",")]
    return text


def _parse_dotted(source: str) -> dict:
    root: dict = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: '{key}' nests under a scalar")
        node[parts[-1]] = _coerce_scalar(value)
    return root


def parse_config_text(source: str) -> RunConfig:
    """Parse either dialect from raw text."""
    stripped = source.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
    else:
        doc = _parse_dotted(source)
    return config_from_dict(doc)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None


def _as_str_list(value, field_name: str) -> list[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        return list(value)
    raise ConfigError(f"field '{field_name}': expected a name or a non-empty list of names")


def _as_positive(value, field_name: str) -> float:
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not 0 < value < math.inf):
        raise ConfigError(f"field '{field_name}': expected a positive finite number, "
                          f"got {value!r}")
    return float(value)


def config_from_dict(doc: dict) -> RunConfig:
    unknown = sorted(set(doc) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    cfg = RunConfig()
    if "architectures" in doc:
        cfg.architectures = _as_str_list(doc["architectures"], "architectures")
    if "topologies" in doc:
        cfg.topologies = _as_str_list(doc["topologies"], "topologies")
    if "total_power_w" in doc:
        cfg.total_power_w = _as_positive(doc["total_power_w"], "total_power_w")
    if "pol_voltage_v" in doc:
        cfg.pol_voltage_v = _as_positive(doc["pol_voltage_v"], "pol_voltage_v")
    if "die_area_mm2" in doc and doc["die_area_mm2"] is not None:
        cfg.die_area_mm2 = _as_positive(doc["die_area_mm2"], "die_area_mm2")
    if "datasets" in doc:
        if not isinstance(doc["datasets"], dict):
            raise ConfigError("field 'datasets': expected an object of dataset overrides")
        cfg.dataset_overrides = doc["datasets"]
    for name in cfg.architectures:
        if name not in PLANS:
            raise ConfigError(f"unknown architecture '{name}'")
        try:
            check_pol_voltage(name, cfg.pol_voltage_v)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return cfg
