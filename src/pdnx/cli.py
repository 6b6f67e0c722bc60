"""Batch command-line front end.

    pdnx datasets    [--config FILE]
    pdnx evaluate    [--config FILE] [--out DIR] [--format json,csv,txt] [--strict] [--stamp]
    pdnx compare     [--config FILE] [--out DIR] [--format json,csv,txt] [--strict] [--stamp]
    pdnx sweep       [--config FILE] [--out DIR] --param NAME --values LIST
    pdnx calibrate   [--config FILE] [--out DIR] [--target NAME=VALUE ...]
    pdnx feasibility [--config FILE] [--out DIR] [--format json,csv,txt] [--strict]

Each command takes only the options it reads; any other is a usage error.
Exit codes: 0 success, 2 config or usage error, 3 feasibility failure under
--strict (evaluate, compare, feasibility), 4 numerical failure. All outputs
are deterministic; text reports embed a timestamp only under --stamp.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace

from .config import ARCHITECTURE_NAMES, RunConfig, load_config
from .datasets import BUILTIN_NAMES, calibration_to_document, load_datasets, load_raw_dataset
from .errors import ConfigError, PdnxError, SingularSystem, TargetUnreachable, Unsatisfiable

# architecture and reporting load numpy, so a command imports them once its
# configuration (and a calibration's targets) is loaded and checked: `pdnx
# datasets`, `--help` and a config error load none of them.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FEASIBILITY = 3
EXIT_NUMERICAL = 4

# Calibration knobs a sweep may vary, mapped to their calibration field.
SWEEP_PARAMETERS = {
    "sheet_resistance": "sheet_resistance_ohm_sq",
    "die_grid_multiplier": "die_grid_multiplier",
    "power_die_multiplier": "power_die_multiplier",
    "pcb_lateral_resistance": "pcb_lateral_resistance_ohm",
    "demand_weight": "demand_weight",
}
# Plus run-level knobs handled specially.
SWEEP_RUN_PARAMETERS = ("die_area", "total_power")
# Most samples a start:stop:step range may ask for; checked before the list
# is built.
_MAX_SWEEP_SAMPLES = 100_000
_FORMATS = ("json", "csv", "txt")


def _formats(text: str) -> tuple[str, ...]:
    """--format's comma list; an unknown format is a usage error."""
    fmts = tuple(f.strip() for f in text.split(",") if f.strip())
    bad = sorted(set(fmts) - set(_FORMATS))
    if bad:
        raise argparse.ArgumentTypeError(f"unknown format(s) {', '.join(bad)}")
    return fmts


# Every option a command may take, as add_argument keywords.
_OPTIONS = {
    "config": {"help": "run configuration (JSON or dotted key=value)"},
    "out": {"default": "out", "help": "output directory (default: out)"},
    "format": {"type": _formats, "default": _FORMATS,
               "help": "comma list of json,csv,txt (default: all three)"},
    "strict": {"action": "store_true", "help": "treat feasibility failures as errors (exit 3)"},
    "stamp": {"action": "store_true", "help": "embed a timestamp in text reports"},
    "param": {"required": True,
              "help": f"one of: {', '.join([*SWEEP_PARAMETERS, *SWEEP_RUN_PARAMETERS])}"},
    "values": {"required": True, "help": "comma list (1,2,3) or range start:stop:step"},
    "target": {"action": "append", "default": [], "metavar": "NAME=VALUE",
               "help": "a0_loss_pct=40 | a1_spread=16:27 | a2_spread=10:93 | "
                       "min_die_area=1200 | utilizations=bga:0.01,c4:0.02,..."},
}
_REPORTS = ("config", "out", "format", "strict", "stamp")
# Each command with its help and the options it reads.
_COMMAND_OPTIONS = {
    "datasets": ("list built-in datasets and overrides", ("config",)),
    "evaluate": ("evaluate one architecture + converter", _REPORTS),
    "compare": ("evaluate every architecture x converter cell", _REPORTS),
    "sweep": ("evaluate along one numeric knob", ("config", "out", "param", "values")),
    "calibrate": ("fit calibration knobs to targets", ("config", "out", "target")),
    "feasibility": ("usage caps and minimum die area", ("config", "out", "format", "strict")),
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """The parsed command line. An argument the command does not take is a
    usage error reported by the command's own parser, so its usage line
    names the command and the options it does take."""
    parser = argparse.ArgumentParser(
        prog="pdnx",
        description="Board-to-die power delivery design space exploration",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=help_text)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def _load(args) -> tuple[RunConfig, "object"]:
    """The run config and its datasets."""
    cfg = load_config(args.config) if args.config else RunConfig()
    datasets = load_datasets(cfg.dataset_overrides)
    for name in cfg.architectures:
        if name not in ARCHITECTURE_NAMES:
            raise ConfigError(f"unknown architecture '{name}'")
    for name in cfg.topologies:
        if name not in datasets.topologies:
            raise ConfigError(f"unknown converter topology '{name}'")
    return cfg, datasets


def _emit(args, stem: str, json_doc, csv_text: str, txt_text: str) -> list[str]:
    from . import reporting as rpt
    written = []
    for fmt, content in (("json", rpt.dump_json(json_doc)), ("csv", csv_text),
                         ("txt", txt_text)):
        if fmt in args.format:
            path = os.path.join(args.out, f"{stem}.{fmt}")
            rpt.write_atomic(path, content)
            written.append(path)
    return written


def cmd_datasets(args) -> int:
    cfg, datasets = _load(args)
    for name in BUILTIN_NAMES:
        raw = load_raw_dataset(name)
        print(f"{name}: {raw.get('provenance', '')}")
    if datasets.overridden_fields:
        print("overridden fields:")
        for field_name in datasets.overridden_fields:
            print(f"  {field_name}")
    else:
        print("no user overrides active")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg, datasets = _load(args)
    from . import architecture as arch
    from . import reporting as rpt
    cell = arch.evaluate_cell(
        cfg.architectures[0], cfg.topologies[0], datasets,
        die_area_mm2=cfg.die_area_mm2, total_power_w=cfg.total_power_w,
        pol_voltage_v=cfg.pol_voltage_v,
    )
    if cell.status != "ok":
        verdict = "error" if cell.status == "error" else "not reported"
        line = f"{cell.architecture} + {cell.topology}: {verdict} ({cell.reason})"
        _emit(args, "breakdown", asdict(cell),
              rpt.table_to_csv(arch.ComparisonTable([cell])), line + "\n")
        print(line)
        if cell.status == "error":
            return EXIT_NUMERICAL
        return EXIT_FEASIBILITY if args.strict else EXIT_OK

    breakdown = cell.breakdown
    files = _emit(args, "breakdown", asdict(breakdown),
                  rpt.breakdown_to_csv(breakdown),
                  rpt.breakdown_to_text(breakdown, stamp=args.stamp))
    print(f"{cell.architecture} + {breakdown.topology}: total loss "
          f"{breakdown.total_loss_w:.1f} W ({breakdown.total_loss_pct:.1f}% of budget)")
    for path in files:
        print(f"wrote {path}")
    if args.strict and breakdown.worst_status() == "fail":
        return EXIT_FEASIBILITY
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg, datasets = _load(args)
    from . import architecture as arch
    from . import reporting as rpt
    table = arch.compare(
        cfg.architectures, cfg.topologies, datasets,
        die_area_mm2=cfg.die_area_mm2, total_power_w=cfg.total_power_w,
        pol_voltage_v=cfg.pol_voltage_v,
    )
    files = _emit(args, "comparison", rpt.table_to_dict(table),
                  rpt.table_to_csv(table), rpt.table_to_text(table, stamp=args.stamp))
    print(rpt.table_to_text(table), end="")
    for path in files:
        print(f"wrote {path}")
    if args.strict and any(c.status != "ok" for c in table.cells):
        return EXIT_FEASIBILITY
    return EXIT_OK


def _parse_values(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad range '{text}' (want start:stop[:step])")
        start, stop = float(parts[0]), float(parts[1])
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"range bounds must be finite: '{text}'")
        if stop < start:
            raise ConfigError(f"range stop {stop:g} is below start {start:g}")
        if stop == start:
            return [start]
        step = float(parts[2]) if len(parts) == 3 else (stop - start) / 10.0
        if not step > 0:
            raise ConfigError("range step must be > 0")
        # Each sample is start + k*step, so rounding does not accumulate; the
        # relative slack keeps an endpoint that the division puts just short.
        span = (stop - start) / step * (1.0 + 1e-9)
        if not span < _MAX_SWEEP_SAMPLES:
            raise ConfigError(f"range '{text}' asks for {span + 1:.6g} samples, above the "
                              f"{_MAX_SWEEP_SAMPLES} sample limit")
        count = math.floor(span) + 1
        # Twelve significant digits of the range's magnitude trim float noise
        # (0.30000000000000004) without zeroing a small-valued range.
        digits = 11 - math.floor(math.log10(max(abs(start), abs(stop))))
        return [round(start + k * step, digits) for k in range(count)]
    return [float(p) for p in text.split(",") if p.strip()]


def cmd_sweep(args) -> int:
    cfg, datasets = _load(args)
    param = args.param
    if param not in SWEEP_PARAMETERS and param not in SWEEP_RUN_PARAMETERS:
        raise ConfigError(
            f"unknown sweep parameter '{param}' "
            f"(known: {', '.join([*SWEEP_PARAMETERS, *SWEEP_RUN_PARAMETERS])})"
        )
    values = _parse_values(args.values)
    from . import architecture as arch
    from . import reporting as rpt
    arch_name = cfg.architectures[0]
    topo_name = cfg.topologies[0]

    # Every point is evaluated in one plane-major batch, so points that share
    # a plane share its factor. A bad value is an error row.
    cells: list[arch.ComparisonCell | None] = []
    plans = []
    for value in values:
        ds = datasets
        plan = {"die_area_mm2": cfg.die_area_mm2, "total_power_w": cfg.total_power_w,
                "pol_voltage_v": cfg.pol_voltage_v}
        if param == "die_area":
            plan["die_area_mm2"] = value
        elif param == "total_power":
            plan["total_power_w"] = value
        try:
            if param in SWEEP_PARAMETERS:
                cal = replace(ds.calibration, **{SWEEP_PARAMETERS[param]: value})
                ds = replace(ds, calibration=cal)
        except ValueError as exc:
            cells.append(arch.ComparisonCell(arch_name, topo_name, "error", str(exc)))
        else:
            cells.append(None)
            plans.append((arch_name, topo_name, ds, plan))
    outcomes = iter(arch.evaluate_plans(plans))
    lines = [f"{param},{rpt.CELL_CSV_HEADER}"]
    for value, cell in zip(values, cells):
        if cell is None:
            try:
                cell = arch.verdict(arch_name, topo_name, next(outcomes))
            except ValueError as exc:
                cell = arch.ComparisonCell(arch_name, topo_name, "error", str(exc))
        lines.append(f"{value!r},{rpt.cell_to_csv_row(cell)}")
    csv_text = "\n".join(lines) + "\n"
    path = os.path.join(args.out, f"sweep_{param}.csv")
    rpt.write_atomic(path, csv_text)
    print(f"wrote {path} ({len(values)} samples)")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg, datasets = _load(args)
    from .calibrate import parse_targets, run_calibration
    targets = parse_targets(args.target)
    from . import reporting as rpt
    calibration, residuals = run_calibration(datasets, targets)
    doc = calibration_to_document(
        calibration,
        provenance="user calibration fitted by 'pdnx calibrate'"
        if targets else "identity copy of the active calibration",
        residuals=residuals,
    )
    path = os.path.join(args.out, "calibration-user.json")
    rpt.write_atomic(path, rpt.dump_json(doc))
    print(f"wrote {path}")
    for name, res in sorted(residuals.items()):
        print(f"  {name}: relative residual {res:.4f}")
    return EXIT_OK


def cmd_feasibility(args) -> int:
    cfg, datasets = _load(args)
    from . import architecture as arch
    from . import reporting as rpt
    arch_name = cfg.architectures[0]
    spec = arch.build_architecture(
        arch_name, cfg.topologies[0], datasets,
        die_area_mm2=cfg.die_area_mm2, total_power_w=cfg.total_power_w,
        pol_voltage_v=cfg.pol_voltage_v,
    )
    entries = arch.utilization_report(spec, datasets)
    demand = cfg.total_power_w / cfg.pol_voltage_v
    min_area = arch.min_die_area_for_current(demand, datasets.calibration.policy(), datasets)
    area_doc = {
        "demand_a": demand,
        "min_die_area_mm2": min_area.area_mm2,
        "power_density_a_mm2": min_area.density_a_mm2,
        "binding_level": min_area.binding_level,
    }

    doc = {
        "architecture": arch_name,
        "utilization": [asdict(e) for e in entries],
        "reference_min_die_area": area_doc,
    }
    txt_lines = [f"vertical-path utilization for {arch_name} "
                 f"({cfg.total_power_w:g} W at {cfg.pol_voltage_v:g} V POL):"]
    for e in entries:
        txt_lines.append(
            f"  [{e.status:>4}] {e.level} at {e.domain_voltage_v:g} V / "
            f"{e.current_a:.1f} A: {e.total_used} of {e.available} "
            f"({e.utilization_fraction:.2%} vs cap {e.cap:.0%})"
        )
    txt_lines.append(
        f"board-level delivery of {demand:g} A needs at least "
        f"{min_area.area_mm2:.0f} mm2 of die "
        f"({min_area.density_a_mm2:.2f} A/mm2, binding level {min_area.binding_level})"
    )
    txt = "\n".join(txt_lines) + "\n"
    _emit(args, "feasibility", doc, rpt.utilization_to_csv(entries), txt)
    print(txt, end="")
    if args.strict and any(e.status == "fail" for e in entries):
        return EXIT_FEASIBILITY
    return EXIT_OK


_COMMANDS = {
    "datasets": cmd_datasets,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
    "feasibility": cmd_feasibility,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TargetUnreachable, SingularSystem, Unsatisfiable, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PdnxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
