"""Report serialization: JSON for machines, CSV for plotting, text for humans.

A JSON report is its record's dataclass as `dataclasses.asdict` gives it,
so its keys are the record's field names. All emitters are deterministic:
keys are sorted, floats use repr, and no timestamps appear unless the caller
explicitly stamps the text report.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from datetime import datetime, timezone

from .architecture import ComparisonCell, ComparisonTable, LossBreakdown, UtilizationEntry
from .floats import ordered_sum

# One row per comparison cell; the sweep CSV prefixes the swept value.
CELL_CSV_HEADER = ("architecture,topology,status,total_loss_w,total_loss_pct,"
                   "horizontal_loss_w,converter_loss_w,vertical_loss_w,pcb_lateral_loss_w,"
                   "feasibility,vr_current_min_a,vr_current_max_a,reason")


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_atomic(path: str, content: str) -> None:
    """Write through a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pdnx-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _loss_rows(b: LossBreakdown):
    """(category, name, loss in W) per loss component, in report order."""
    for category, losses in (("vertical", b.vertical_losses_w),
                             ("horizontal", b.horizontal_losses_w)):
        for name in sorted(losses):
            yield category, name, losses[name]
    yield "horizontal", "pcb_lateral", b.pcb_lateral_loss_w
    for name in sorted(b.converter_losses_w):
        yield "converter", name, b.converter_losses_w[name]


def breakdown_to_csv(b: LossBreakdown) -> str:
    """Long-form loss table: one row per loss component."""
    lines = ["architecture,topology,category,name,loss_w,pct_of_source_budget"]
    for category, name, value in [*_loss_rows(b), ("total", "total", b.total_loss_w)]:
        pct = 100.0 * value / b.budget_power_w
        lines.append(f"{b.architecture},{b.topology},{category},{name},{value!r},{pct!r}")
    return "\n".join(lines) + "\n"


def breakdown_to_text(b: LossBreakdown, stamp: bool = False) -> str:
    budget = b.budget_power_w
    lines = []
    if stamp:
        lines.append(f"generated: {datetime.now(timezone.utc).isoformat()}")
    lines.append(f"architecture {b.architecture}  converter {b.topology}")
    lines.append(f"source budget {budget:.1f} W  source power {b.source_power_w:.2f} W  "
                 f"POL power {b.pol_power_w:.2f} W")
    lines.append("")
    lines.append(f"{'category':<12} {'component':<22} {'loss [W]':>12} {'% of budget':>12}")
    lines.append("-" * 62)

    def row(cat, name, val):
        lines.append(f"{cat:<12} {name:<22} {val:>12.4f} {100.0 * val / budget:>12.3f}")

    for category, name, value in _loss_rows(b):
        row(category, name, value)
    lines.append("-" * 62)
    row("total", "total", b.total_loss_w)
    lines.append("")
    for stage, currents in sorted(b.per_vr_currents_a.items()):
        if currents:
            lines.append(
                f"{stage}: {len(currents)} VRs, per-VR current "
                f"{min(currents):.2f} to {max(currents):.2f} A "
                f"(mean {ordered_sum(currents) / len(currents):.2f} A)"
            )
    lines.append("")
    lines.append("feasibility:")
    for f in b.feasibility:
        lines.append(f"  [{f.status:>4}] {f.check}: {f.detail}")
    if b.assumptions:
        lines.append("assumptions:")
        for a in b.assumptions:
            lines.append(f"  - {a}")
    return "\n".join(lines) + "\n"


def table_to_dict(t: ComparisonTable) -> dict:
    return asdict(t)


def cell_to_csv_row(c: ComparisonCell) -> str:
    """One CELL_CSV_HEADER row; loss columns stay empty unless the cell is ok."""
    b = c.breakdown
    if b is None:
        figures = [""] * 9
    else:
        currents = [x for vals in b.per_vr_currents_a.values() for x in vals]
        figures = [
            repr(b.total_loss_w), repr(b.total_loss_pct),
            repr(ordered_sum(b.horizontal_losses_w.values())),
            repr(ordered_sum(b.converter_losses_w.values())),
            repr(ordered_sum(b.vertical_losses_w.values())),
            repr(b.pcb_lateral_loss_w), b.worst_status(),
            repr(min(currents)) if currents else "",
            repr(max(currents)) if currents else "",
        ]
    reason = f'"{c.reason}"' if c.reason else ""
    return ",".join([c.architecture, c.topology, c.status, *figures, reason])


def table_to_csv(t: ComparisonTable) -> str:
    return "\n".join([CELL_CSV_HEADER, *map(cell_to_csv_row, t.cells)]) + "\n"


def table_to_text(t: ComparisonTable, stamp: bool = False) -> str:
    lines = []
    if stamp:
        lines.append(f"generated: {datetime.now(timezone.utc).isoformat()}")
    lines.append(f"{'architecture':<10} {'converter':<10} {'status':<13} "
                 f"{'loss [W]':>10} {'loss [%]':>9}  note")
    lines.append("-" * 78)
    for c in t.cells:
        if c.breakdown is None:
            lines.append(f"{c.architecture:<10} {c.topology:<10} {c.status:<13} "
                         f"{'':>10} {'':>9}  {c.reason}")
        else:
            b = c.breakdown
            lines.append(f"{c.architecture:<10} {c.topology:<10} {c.status:<13} "
                         f"{b.total_loss_w:>10.2f} {b.total_loss_pct:>9.2f}")
    return "\n".join(lines) + "\n"


def utilization_to_csv(entries: list[UtilizationEntry]) -> str:
    lines = ["level,domain_v,current_a,per_net,total_used,available,utilization,cap,status"]
    for e in entries:
        lines.append(
            f"{e.level},{e.domain_voltage_v!r},{e.current_a!r},{e.per_net_count},"
            f"{e.total_used},{e.available},{e.utilization_fraction!r},{e.cap!r},{e.status}"
        )
    return "\n".join(lines) + "\n"
