"""Board-to-die power delivery design-space exploration.

Models the DC loss of moving a kilowatt-class budget from a 48 V board rail
to a 1 V point-of-load: vertical interconnect, lateral plane distribution,
and the converter stages in between, for a reference board-level scheme and
four vertically integrated alternatives.

Each exported name imports its submodule on first use (PEP 562), so
`import pdnx` loads no numpy and `load_datasets()` loads none of the plane
solver.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it.
_SUBMODULE_NAMES = {
    "architecture": ("ArchitectureSpec", "ComparisonTable", "LossBreakdown",
                     "build_architecture", "compare", "evaluate",
                     "min_die_area_for_current", "utilization_report"),
    "config": ("ARCHITECTURE_NAMES",),
    "converter": ("CalibratedLossModel", "ConverterTopology", "StageSpec", "efficiency_at",
                  "stage_loss", "vr_footprint_area_mm2"),
    "datasets": ("Calibration", "Datasets", "load_datasets"),
    "interconnect": ("InterconnectLevel", "UtilizationPolicy", "connection_count",
                     "effective_level_resistance", "level_loss",
                     "per_connection_resistance", "required_connections"),
    "pdn_grid": ("GridProblem", "GridSolution", "ResistiveGrid", "build_problem", "solve_dc"),
    "placement": ("DieFloorplan", "VrSite", "place_periphery", "place_under_die"),
}
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items()
                 for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module 'pdnx' has no attribute '{name}'") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
