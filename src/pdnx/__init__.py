"""Board-to-die power delivery design-space exploration.

Models the DC loss of moving a kilowatt-class budget from a 48 V board rail
to a 1 V point-of-load: vertical interconnect, lateral plane distribution,
and the converter stages in between, for a reference board-level scheme and
four vertically integrated alternatives.
"""

from .architecture import (ARCHITECTURE_NAMES, ArchitectureSpec, ComparisonTable,
                           LossBreakdown, build_architecture, compare, evaluate,
                           min_die_area_for_current, utilization_report)
from .converter import (CalibratedLossModel, ConverterTopology, StageSpec, efficiency_at,
                        stage_loss, vr_footprint_area_mm2)
from .datasets import Calibration, Datasets, load_datasets
from .interconnect import (InterconnectLevel, UtilizationPolicy, connection_count,
                           effective_level_resistance, level_loss,
                           per_connection_resistance, required_connections)
from .pdn_grid import GridProblem, GridSolution, ResistiveGrid, build_problem, solve_dc
from .placement import DieFloorplan, VrSite, place_periphery, place_under_die

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURE_NAMES", "ArchitectureSpec", "CalibratedLossModel", "Calibration",
    "ComparisonTable", "ConverterTopology", "Datasets",
    "DieFloorplan", "GridProblem", "GridSolution", "InterconnectLevel",
    "LossBreakdown", "ResistiveGrid", "StageSpec",
    "UtilizationPolicy", "VrSite", "build_architecture", "build_problem",
    "compare", "connection_count",
    "effective_level_resistance", "efficiency_at", "evaluate", "level_loss",
    "load_datasets", "min_die_area_for_current", "per_connection_resistance",
    "place_periphery", "place_under_die", "required_connections",
    "solve_dc", "stage_loss",
    "utilization_report", "vr_footprint_area_mm2",
]
