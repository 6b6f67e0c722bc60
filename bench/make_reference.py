"""Write reference.json: pdnx's outputs for every input a workload seed can draw.

    python3 bench/make_reference.py

The committed reference.json was taken from the commit that introduced this
benchmark. Regenerate it only when a change is meant to move the numbers, and
say so in that change; otherwise the benchmark's correctness check is what
catches a drift.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    modules = {name: importlib.import_module(f"pdnx.{name}") for name in
               ("architecture", "calibrate", "datasets", "reporting")}
    work_dir = workloads.make_work_dir(ROOT)

    def run(name: str, inputs: dict):
        work = workloads.Workload(name, inputs, modules, work_dir)
        work.setup()
        return work, work.run()

    work, (table, _) = run("compare10", {"archs": list(workloads.COMPARE_ARCHS),
                                         "topologies": list(workloads.COMPARE_TOPOLOGIES)})
    compare = {
        f"{c.architecture}/{c.topology}": {
            "status": c.status,
            "losses": workloads.loss_record(c.breakdown) if c.breakdown else None,
        }
        for c in table.cells
    }

    calib = {}
    for lo in workloads.SPREAD_LO_A:
        for hi in workloads.SPREAD_HI_A:
            _, (cal, residuals) = run("calib_a1_spread", {"window": (lo, hi)})
            calib[f"{lo:g}:{hi:g}"] = {"demand_weight": cal.demand_weight,
                                       "residual": residuals["a1_spread"]}

    points = [(a, r) for r in workloads.ladder_resolutions() for a in workloads.LADDER_ARCHS]
    work, ladder_out = run("mesh_ladder", {"points": points})
    ladder = {
        f"{name}/{res}": {"total_loss_w": b.total_loss_w,
                          "within_rating": workloads.within_rating(b, work.datasets)}
        for name, res, b in ladder_out
    }

    doc = {"compare10": compare, "calib_a1_spread": calib, "mesh_ladder": ladder}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
