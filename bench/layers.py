"""Per-layer spans recorded from outside pdnx, by wrapping module attributes.

Each wrapper replaces the attribute that callers look up (for example
`pdnx.pdn_grid.solve_dc`, which `pdnx.architecture` reaches as
`grid.solve_dc`), not the names re-exported from `pdnx/__init__`. A span
keeps its name, start, end, parent span and the pass it belongs to; spans
stay in memory until the benchmark writes them out. Nothing in pdnx changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from dataclasses import dataclass, field

import scipy.sparse.linalg as spla

from workloads import pol_stage_currents

# scipy.sparse.linalg entry points that solve or factor a sparse system.
SPARSE_SOLVERS = ("spsolve", "splu", "spilu", "factorized", "spsolve_triangular",
                  "cg", "bicgstab", "gmres", "minres")
REPORTING = ("table_to_dict", "table_to_csv", "table_to_text", "dump_json", "write_atomic")
COUNTED = ("converter.stage_loss", "interconnect.required_connections",
           "interconnect.level_loss")

PER_LAYER_UNITS = {
    "pdn_grid.sparse_solve.s": "s",
    "pdn_grid.sparse_solve.calls": "count",
    "pdn_grid.solve_dc.s": "s",
    "pdn_grid.solve_dc.self_s": "s",
    "pdn_grid.solve_dc.calls": "count",
    "pdn_grid.solve_dc.nodes": "count",
    "pdn_grid.solve_dc.residual_max": "ratio",
    "pdn_grid.build_problem.s": "s",
    "pdn_grid.build_problem.calls": "count",
    "pdn_grid.build_problem.refined": "count",
    "architecture.evaluate.calls": "count",
    "architecture.evaluate.self_s": "s",
    "architecture.solves_per_a3_eval": "ratio",
    "calibrate.evals_per_fit": "ratio",
    "placement.place_periphery.s": "s",
    "placement.place_under_die.s": "s",
    "converter.stage_loss.calls": "count",
    "interconnect.required_connections.calls": "count",
    "interconnect.level_loss.calls": "count",
    "reporting.s": "s",
    "reporting.bytes": "B",
    "datasets.load_datasets.s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 at the top
    pass_id: int
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def dur_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Span recorder plus the set of patched module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.pass_id, time.perf_counter_ns())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        """`fn` recording one span per call; attrs(bound_args, result) -> dict."""
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = attrs(bound.arguments, result)
            return result
        return wrapper

    def _timed_factor(self, fn):
        """splu/spilu/factorized: also time the solves on the returned factor."""
        factor_call = self.wrap("pdn_grid.sparse_solve", fn)
        tracer = self

        class TimedFactor:
            def __init__(self, inner):
                self._inner = inner
                self.solve = tracer.wrap("pdn_grid.sparse_solve", inner.solve)

            def __getattr__(self, attr):
                return getattr(self._inner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            factor = factor_call(*args, **kwargs)
            if callable(factor) and not hasattr(factor, "solve"):
                return self.wrap("pdn_grid.sparse_solve", factor)
            return TimedFactor(factor)
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        pdn_grid = importlib.import_module("pdnx.pdn_grid")
        architecture = importlib.import_module("pdnx.architecture")
        # `pdnx.calibrate` is the converter function re-exported by the
        # package; the calibration module has to be imported by full name.
        calibrate = importlib.import_module("pdnx.calibrate")
        modules = {name: importlib.import_module(f"pdnx.{name}") for name in
                   ("placement", "converter", "interconnect", "reporting", "datasets")}

        for entry in SPARSE_SOLVERS:
            original = getattr(spla, entry, None)
            if original is None:
                continue
            if entry in ("splu", "spilu", "factorized"):
                replacement = self._timed_factor(original)
            else:
                replacement = self.wrap("pdn_grid.sparse_solve", original)
            self._patch(spla, entry, replacement)
            # A name imported with `from scipy.sparse.linalg import ...`.
            for module in (pdn_grid, architecture, calibrate):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, replacement)

        def optional(module, attr, name, attrs=None):
            if hasattr(module, attr):
                self._patch(module, attr, self.wrap(name, getattr(module, attr), attrs))

        optional(pdn_grid, "build_problem", "pdn_grid.build_problem", _problem_attrs)
        optional(pdn_grid, "solve_dc", "pdn_grid.solve_dc", _solution_attrs)
        optional(architecture, "evaluate", "architecture.evaluate", _breakdown_attrs)
        optional(calibrate, "run_calibration", "calibrate.run_calibration")
        optional(modules["placement"], "place_periphery", "placement.place_periphery")
        optional(modules["placement"], "place_under_die", "placement.place_under_die")
        for qualified in COUNTED:
            module, attr = qualified.split(".")
            optional(modules[module], attr, qualified)
        for attr in REPORTING:
            optional(modules["reporting"], attr, f"reporting.{attr}",
                     (lambda a, _r: {"bytes": len(a["content"].encode("utf-8"))})
                     if attr == "write_atomic" else None)
        optional(modules["datasets"], "load_datasets", "datasets.load_datasets")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _problem_attrs(args, problem) -> dict:
    nominal_pitch = args["plan"].side_mm / (args["grid_resolution"] - 1)
    return {"nodes": problem.grid.n_nodes,
            "refined": problem.grid.cell_pitch_mm < nominal_pitch * (1 - 1e-9)}


def _solution_attrs(args, solution) -> dict:
    return {"nodes": args["problem"].grid.n_nodes, "residual": float(solution.residual)}


def _breakdown_attrs(args, breakdown) -> dict:
    spec = args["spec"]
    currents = pol_stage_currents(breakdown)
    return {"arch": spec.name, "die_current_a": spec.total_power_w / spec.pol_voltage_v,
            "pol_current_sum_a": math.fsum(currents) if currents else None}


def _ancestors(spans: list[Span], span: Span):
    i = span.parent
    while i >= 0:
        yield spans[i]
        i = spans[i].parent


def _ancestor(spans: list[Span], span: Span, name: str) -> Span | None:
    return next((a for a in _ancestors(spans, span) if a.name == name), None)


def pass_metrics(spans: list[Span], pass_id: int) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.dur_s
    mine = [(i, s) for i, s in enumerate(spans) if s.pass_id == pass_id]

    def of(name):
        return [(i, s) for i, s in mine if s.name == name]

    def total(name):
        return sum(s.dur_s for _, s in of(name))

    def self_s(name):
        return sum(s.dur_s - child_s[i] for i, s in of(name))

    solver = [s for _, s in of("pdn_grid.sparse_solve")
              if _ancestor(spans, s, "pdn_grid.sparse_solve") is None]
    solves = [s for _, s in of("pdn_grid.solve_dc")]
    problems = [s for _, s in of("pdn_grid.build_problem")]
    evals = [s for _, s in of("architecture.evaluate")]
    a3_evals = [s for s in evals if s.attrs["arch"].startswith("A3")]
    a3_solves = [s for s in solves
                 if (e := _ancestor(spans, s, "architecture.evaluate")) is not None
                 and e.attrs["arch"].startswith("A3")]
    fits = of("calibrate.run_calibration")
    fit_evals = [s for s in evals if _ancestor(spans, s, "calibrate.run_calibration")]
    reporting = [s for _, s in mine if s.name.startswith("reporting.")
                 and not any(a.name.startswith("reporting.") for a in _ancestors(spans, s))]

    out = {
        "pdn_grid.sparse_solve.s": sum(s.dur_s for s in solver),
        "pdn_grid.sparse_solve.calls": len(solver),
        "pdn_grid.solve_dc.s": total("pdn_grid.solve_dc"),
        "pdn_grid.solve_dc.self_s": self_s("pdn_grid.solve_dc"),
        "pdn_grid.solve_dc.calls": len(solves),
        "pdn_grid.solve_dc.nodes": sum(s.attrs["nodes"] for s in solves),
        "pdn_grid.solve_dc.residual_max": max((s.attrs["residual"] for s in solves),
                                              default=0.0),
        "pdn_grid.build_problem.s": total("pdn_grid.build_problem"),
        "pdn_grid.build_problem.calls": len(problems),
        "pdn_grid.build_problem.refined": sum(s.attrs["refined"] for s in problems),
        "architecture.evaluate.calls": len(evals),
        "architecture.evaluate.self_s": self_s("architecture.evaluate"),
        "architecture.solves_per_a3_eval": len(a3_solves) / len(a3_evals) if a3_evals else 0.0,
        "calibrate.evals_per_fit": len(fit_evals) / len(fits) if fits else 0.0,
        "placement.place_periphery.s": total("placement.place_periphery"),
        "placement.place_under_die.s": total("placement.place_under_die"),
        "reporting.s": sum(s.dur_s for s in reporting),
        "reporting.bytes": sum(s.attrs["bytes"] for _, s in of("reporting.write_atomic")),
    }
    for name in COUNTED:
        out[f"{name}.calls"] = len(of(name))
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
