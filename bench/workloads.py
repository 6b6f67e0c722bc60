"""The three benchmark workloads: seeded inputs, one timed pass each, checks.

Every workload is a function of its seed only. The seed changes what pdnx
receives (the order of cells and ladder points, the ladder's lattice
resolutions, the spread-target window) within fixed ranges that keep each
workload in one size class. Every allowed input has an entry in
reference.json, taken at the commit that added this benchmark, so every
seed is checked against a reference and not only against invariants.

Why each workload exists:

compare10
    The paper's headline table: A0, A1, A2, A3@12V and A3@6V times DSCH and
    DPMIH at 1 kW and 1 V, plus the JSON/CSV/TXT reports `pdnx compare`
    writes. 35 of its 39 plane solves are the A3 intermediate-plane fixed
    point, so it is the workload that moves when that loop changes.
calib_a1_spread
    The A1 spread calibration: 41 A1+DSCH evaluations on one lattice where
    only the demand weights change. Reusing a factorisation, or fitting the
    weight continuously, shows here. It has no A3 cell.
mesh_ladder
    A1+DSCH and A2+DSCH at six lattice resolutions. Every point is a new
    lattice of a different size, so no cache keyed on the grid can hit; it
    shows how discretisation and factorisation scale with the node count.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

REL_TOL = 1e-9
SOLVE_RESIDUAL_MAX = 1e-10
REFERENCE_PATH = Path(__file__).with_name("reference.json")

COMPARE_ARCHS = ("A0", "A1", "A2", "A3@12V", "A3@6V")
COMPARE_TOPOLOGIES = ("DSCH", "DPMIH")
TOTAL_POWER_W = 1000.0
POL_VOLTAGE_V = 1.0

# Spread-target window: the seed draws each end from its list. The scan
# always makes 41 evaluations, so the window never changes the cost.
SPREAD_LO_A = (15.5, 16.0, 16.5)
SPREAD_HI_A = (26.5, 27.0, 27.5)

# Ladder rungs and the offsets the seed may add to each. Offsets are even:
# the under-die (A2) lattice refines whenever its resolution is even, so an
# odd offset would change the node count fourfold. The three largest rungs
# carry most of the cost and stay fixed so that every seed solves within
# about 1 % of the same total node count.
LADDER_ARCHS = ("A1", "A2")
LADDER_RUNGS = {16: (-2, 0, 2), 24: (-2, 0, 2), 32: (-2, 0, 2),
                48: (0,), 64: (0,), 96: (0,)}

WORKLOADS = ("compare10", "calib_a1_spread", "mesh_ladder")


@dataclass
class Checked:
    """Outcome of checking one pass: how many outputs, which of them failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "compare10":
        archs, topos = list(COMPARE_ARCHS), list(COMPARE_TOPOLOGIES)
        rng.shuffle(archs)
        rng.shuffle(topos)
        return {"archs": archs, "topologies": topos}
    if workload == "calib_a1_spread":
        return {"window": (rng.choice(SPREAD_LO_A), rng.choice(SPREAD_HI_A))}
    if workload == "mesh_ladder":
        points = [(arch, rung + rng.choice(offsets))
                  for rung, offsets in LADDER_RUNGS.items() for arch in LADDER_ARCHS]
        rng.shuffle(points)
        return {"points": points}
    raise ValueError(f"unknown workload '{workload}'")


def ladder_resolutions() -> list[int]:
    return sorted({r + d for r, offsets in LADDER_RUNGS.items() for d in offsets})


class Workload:
    """One workload bound to its inputs; `run` is the timed pass."""

    def __init__(self, name: str, inputs: dict, pdnx_modules: dict, work_dir: Path):
        self.name = name
        self.inputs = inputs
        self.m = pdnx_modules
        self.work_dir = work_dir

    def setup(self):
        self.datasets = self.m["datasets"].load_datasets()

    def run(self):
        return getattr(self, f"_run_{self.name}")()

    def _run_compare10(self):
        arch, rpt = self.m["architecture"], self.m["reporting"]
        table = arch.compare(self.inputs["archs"], self.inputs["topologies"], self.datasets,
                             total_power_w=TOTAL_POWER_W, pol_voltage_v=POL_VOLTAGE_V)
        out = Path(tempfile.mkdtemp(prefix="compare-", dir=self.work_dir))
        try:
            # The same three reports `pdnx compare` writes.
            rpt.write_atomic(str(out / "comparison.json"), rpt.dump_json(rpt.table_to_dict(table)))
            rpt.write_atomic(str(out / "comparison.csv"), rpt.table_to_csv(table))
            rpt.write_atomic(str(out / "comparison.txt"), rpt.table_to_text(table))
            reports = {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}
        finally:
            shutil.rmtree(out)
        return table, reports

    def _run_calib_a1_spread(self):
        lo, hi = self.inputs["window"]
        calibrate = self.m["calibrate"]
        return calibrate.run_calibration(self.datasets, {"a1_spread": (lo, hi)})

    def _run_mesh_ladder(self):
        arch, dsets = self.m["architecture"], self.m["datasets"]
        out = []
        for name, res in self.inputs["points"]:
            ds = dsets.load_datasets({"calibration-default": {"grid_resolution": res}})
            spec = arch.build_architecture(name, "DSCH", ds, total_power_w=TOTAL_POWER_W,
                                           pol_voltage_v=POL_VOLTAGE_V)
            out.append((name, res, arch.evaluate(spec, ds)))
        return out

    def check(self, result, reference: dict, checked: Checked) -> None:
        getattr(self, f"_check_{self.name}")(result, reference[self.name], checked)

    def _check_compare10(self, result, ref, checked: Checked) -> None:
        table, reports = result
        seen = [(c.architecture, c.topology) for c in table.cells]
        expected = [(a, t) for a in self.inputs["archs"] for t in self.inputs["topologies"]]
        checked.expect(seen == expected, f"cells {seen} != {expected}")
        for cell in table.cells:
            key = f"{cell.architecture}/{cell.topology}"
            want = ref[key]
            ok = cell.status == want["status"]
            if ok and cell.status == "ok":
                b = cell.breakdown
                ok = (close_tree(loss_record(b), want["losses"])
                      and pol_sum_ok(b, TOTAL_POWER_W / POL_VOLTAGE_V)
                      and within_rating(b, self.datasets))
            elif ok:
                ok = cell.breakdown is None
            checked.expect(ok, f"cell {key}")
        doc = json.loads(reports.get("comparison.json", "null") or "null")
        checked.expect(
            doc is not None and [c["status"] for c in doc["cells"]]
            == [c.status for c in table.cells], "comparison.json")
        csv_lines = reports.get("comparison.csv", "").splitlines()
        checked.expect(len(csv_lines) == 1 + len(table.cells), "comparison.csv")
        txt_lines = reports.get("comparison.txt", "").splitlines()
        checked.expect(len(txt_lines) == 2 + len(table.cells), "comparison.txt")

    def _check_calib_a1_spread(self, result, ref, checked: Checked) -> None:
        cal, residuals = result
        lo, hi = self.inputs["window"]
        want = ref[f"{lo:g}:{hi:g}"]
        checked.expect(close(cal.demand_weight, want["demand_weight"])
                       and close(residuals.get("a1_spread", math.nan), want["residual"]),
                       f"fit for window {lo:g}:{hi:g}")

    def _check_mesh_ladder(self, result, ref, checked: Checked) -> None:
        for name, res, b in result:
            want = ref[f"{name}/{res}"]
            checked.expect(
                close(b.total_loss_w, want["total_loss_w"])
                and pol_sum_ok(b, TOTAL_POWER_W / POL_VOLTAGE_V)
                and rating_flag(b) == within_rating(b, self.datasets) == want["within_rating"],
                f"ladder point {name}/{res}")


def close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= REL_TOL * max(abs(b), 1e-300)


def close_tree(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            close_tree(got[k], want[k]) for k in want)
    return close(float(got), float(want))


def loss_record(b) -> dict:
    """Total and per-category losses of one breakdown, as the reference stores them."""
    return {
        "total_loss_w": b.total_loss_w,
        "vertical_losses_w": dict(b.vertical_losses_w),
        "horizontal_losses_w": dict(b.horizontal_losses_w),
        "pcb_lateral_loss_w": b.pcb_lateral_loss_w,
        "converter_losses_w": dict(b.converter_losses_w),
    }


def pol_stage_currents(b) -> list[float]:
    if not b.per_vr_currents_a:
        return []
    return b.per_vr_currents_a[max(b.per_vr_currents_a)]   # stageN_* sorts last


def pol_sum_ok(b, die_current_a: float) -> bool:
    """POL-stage per-VR currents sum to the die current (A0 has no VR bank)."""
    currents = pol_stage_currents(b)
    if not currents:
        return b.architecture == "A0"
    return abs(math.fsum(currents) - die_current_a) <= REL_TOL * die_current_a


def within_rating(b, datasets) -> bool:
    """Every stage's worst per-VR load is within its converter family's rating."""
    for stage, currents in b.per_vr_currents_a.items():
        family = stage.split("_", 1)[1].split("-")[0]
        if currents and max(currents) > datasets.topologies[family].i_max_a:
            return False
    return True


def rating_flag(b) -> bool:
    return not any(f.check == "converter_rating" and f.status == "fail" for f in b.feasibility)


def check_spans(spans, pass_id: int, checked: Checked) -> None:
    """Invariants read off a traced pass: every plane solve meets the solver
    residual bound, and every evaluation's POL-stage currents sum to the die
    current."""
    for s in spans:
        if s.pass_id != pass_id:
            continue
        if s.name == "pdn_grid.solve_dc":
            checked.expect(s.attrs["residual"] <= SOLVE_RESIDUAL_MAX,
                           f"solve residual {s.attrs['residual']:.3e}")
        elif s.name == "architecture.evaluate" and s.attrs["pol_current_sum_a"] is not None:
            die = s.attrs["die_current_a"]
            checked.expect(abs(s.attrs["pol_current_sum_a"] - die) <= REL_TOL * die,
                           f"{s.attrs['arch']} POL currents sum to "
                           f"{s.attrs['pol_current_sum_a']!r} A, not {die!r} A")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def make_work_dir(root: Path) -> Path:
    work = root / ".bench_out"
    os.makedirs(work, exist_ok=True)
    return work
